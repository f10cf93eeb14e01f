"""Seeded inputs and suite-computed oracles for the six workloads.

Everything a workload feeds the program is made here from ``--seed`` with
``numpy.random.default_rng`` — no committed trace, no ``repro.replay``, no
``repro.utils.rng`` — so a change under ``src/`` cannot change the load.
Every oracle is a float64 dense ``@`` / ``np.einsum`` / offset loop computed
here; none goes through a ``src/`` executor.

What is drawn from the seed and what is fixed: every nonzero value, every
dense operand and the column permutations of ``pattern_churn`` come from the
seed.  The sparsity *structures* — graphs, scenes, uniform and block masks —
are fixed (``cora`` is the same graph whatever the seed, as the real dataset
would be).  A structure redrawn per seed changes the amount of work: a
power-law degree sequence moves GroupCOO padding by ±10%, a scene's voxel
count flips the engine between its single-shot and windowed schedules (117 MB
against 137 MB peak), an ELL width follows the longest row.  Runs with
different seeds would then differ by their inputs, which reads as noise of
the program.
"""

from __future__ import annotations

import hashlib
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro import SparseEinsum, insum
from repro.datasets import build_kernel_map, generate_scene, load_graph_matrix, voxelize
from repro.datasets.clebsch_gordan import fully_connected_cg_tensor
from repro.formats import COO, ELL, BlockGroupCOO, GroupCOO
from repro.kernels import FullyConnectedTensorProduct, SparseConv3d

SPMM = "C[m,n] += A[m,k] * B[k,n]"
SPMV = "y[m] += A[m,k] * x[k]"
#: The equivariant tensor product over the CG tensor's plain COO arrays
#: (``CGTensor.to_coo_arrays``): the serving mix needs raw operands, and the
#: grouped arrays of ``FullyConnectedTensorProduct`` are private to it.
EQUIVARIANT_COO = "Z[b,CGI[p],w] += CGV[p] * X[b,CGJ[p],u] * Y[b,CGK[p]] * W[b,CGL[p],u,w]"

#: The ROADMAP reference request: 256x192 at 10% density, N=64, float64.
REF_SHAPE, REF_DENSITY, REF_COLS = (256, 192), 0.1, 64
#: Every sparsity structure is drawn from this seed (see module docstring).
STRUCTURE_SEED = 2026
GRAPHS = ("cora", "amazon0505", "soc-BlogCatalog")
#: ELL pads every row to the longest one; on soc-BlogCatalog that is degree
#: 1718 of 2048 (607 ms a call), so ELL runs on the two low-skew graphs only.
ELL_GRAPHS = ("cora", "amazon0505")


def stream(seed: int, name: str) -> np.random.Generator:
    """An independent generator per (seed, purpose): adding a draw to one
    workload cannot shift the inputs of another."""
    return np.random.default_rng([int(seed), zlib.crc32(name.encode())])


def matches(result: Any, oracle: np.ndarray, single: bool) -> bool:
    """The fig-11 tolerance contract: ``rtol=1e-5`` for float64 inputs,
    ``atol=1e-2`` for float32 inputs."""
    result = np.asarray(result)
    if result.shape != oracle.shape:
        return False
    return bool(np.allclose(result, oracle, rtol=1e-5, atol=1e-2 if single else 1e-8))


def digest(arrays: list[np.ndarray]) -> str:
    """Content hash of generated inputs (same seed -> same digest)."""
    sha = hashlib.sha1()
    for array in arrays:
        sha.update(np.ascontiguousarray(array).tobytes())
    return sha.hexdigest()[:16]


# ---------------------------------------------------------------------------
# Sparsity structures (fixed) and their values (from the seed)
# ---------------------------------------------------------------------------
def structure(name: str) -> np.random.Generator:
    """The fixed generator a named sparsity structure is drawn from."""
    return stream(STRUCTURE_SEED, name)


def fill(mask: np.ndarray, rng, dtype=np.float64) -> np.ndarray:
    """A matrix with seeded normal values where ``mask`` is set."""
    dense = np.zeros(mask.shape, dtype=dtype)
    dense[mask] = rng.standard_normal(int(mask.sum()))
    return dense


def uniform_mask(name: str, shape=REF_SHAPE, density=REF_DENSITY) -> np.ndarray:
    return structure(name).random(shape) < density


def block_mask(name: str, size: int, block: int, block_density: float) -> np.ndarray:
    """Dense ``block x block`` tiles on an exact share of the block grid."""
    grid = size // block
    chosen = structure(name).permutation(grid * grid)[: round(block_density * grid * grid)]
    tiles = np.zeros(grid * grid, dtype=bool)
    tiles[chosen] = True
    return np.kron(tiles.reshape(grid, grid), np.ones((block, block), dtype=bool))


def powerlaw_mask(name: str, size: int) -> np.ndarray:
    """Pareto row lengths (a degree-skewed graph)."""
    rng = structure(name)
    occupancy = np.minimum(size, (rng.pareto(1.2, size) * 4 + 1).astype(int))
    rank = rng.random((size, size)).argsort(axis=1).argsort(axis=1)
    return rank < occupancy[:, None]


def scene_kernel_map(name: str, max_points: int = 8000):
    points = generate_scene(name, max_points=max_points, rng=structure(f"scene/{name}"))
    return build_kernel_map(voxelize(points))


def pointcloud_mask(size: int) -> np.ndarray:
    """Voxel adjacency of a scene's kernel map, folded to ``size`` rows."""
    mask = np.zeros((size, size), dtype=bool)
    for pairs in scene_kernel_map("pantry", max_points=6000).pairs:
        mask[pairs[:, 0] % size, pairs[:, 1] % size] = True
    return mask


def graph_mask(name: str) -> np.ndarray:
    """A fig-11 stand-in graph at 2048 rows."""
    csr = load_graph_matrix(name, max_rows=2048, rng=structure(f"graph/{name}"))
    mask = np.zeros(csr.shape, dtype=bool)
    mask[np.repeat(np.arange(csr.shape[0]), csr.row_occupancy()), csr.indices] = True
    return mask


# ---------------------------------------------------------------------------
# Library cases
# ---------------------------------------------------------------------------
@dataclass
class Case:
    """One (expression, pattern, format) the library workloads time.

    ``build_format`` makes a fresh format instance (``None`` for cases whose
    metadata is built inside the kernel class); ``construct`` makes a new
    operator object over it and returns the warm call.  ``refs`` are the
    outside yardsticks on the same operands.  ``reps`` is how many calls one
    round makes (fixed per case so the number of operations attempted is
    exact).
    """

    name: str
    family: str
    construct: Callable[[Any], Callable[[], np.ndarray]]
    oracle: np.ndarray
    single: bool
    reps: int = 1
    build_format: Callable[[], Any] = lambda: None
    refs: dict[str, Callable[[], Any]] = field(default_factory=dict)
    #: SpMM cases only: the operands, for the probes that lower the same
    #: request by hand (kernel rung, compile phases).
    dense: np.ndarray | None = None
    rhs: np.ndarray | None = None

    @property
    def group(self) -> str:
        """Cases over the same operands share a group (``cora/ell`` -> ``cora``);
        the yardsticks are timed once per group, on its first case."""
        return self.name.split("/")[0]

    def setup(self) -> Callable[[], np.ndarray]:
        """One complete set-up: build the format, construct the operator."""
        return self.construct(self.build_format())


FORMAT_BUILDERS: dict[str, Callable[[np.ndarray], Any]] = {
    "ell": ELL.from_dense,
    "groupcoo": GroupCOO.from_dense,
    "coo": COO.from_dense,
}


def block_builder(block: int) -> Callable[[np.ndarray], Any]:
    return lambda dense: BlockGroupCOO.from_dense(dense, (block, block))


def yardsticks(dense, rhs, blocksize=None) -> dict[str, Callable[[], Any]]:
    """Dense BLAS, and ``scipy.sparse`` (CSR, or BSR when ``blocksize`` is
    given) when scipy imports, on the operands of an SpMM case."""
    refs: dict[str, Callable[[], Any]] = {"dense": lambda: dense @ rhs}
    try:
        import scipy.sparse as sp
    except ImportError:
        return refs
    matrix = sp.bsr_matrix(dense, blocksize=blocksize) if blocksize else sp.csr_matrix(dense)
    refs["scipy"] = lambda: matrix @ rhs
    return refs


def spmm_case(name, family, dense, rhs, build, reps, refs=None) -> Case:
    def construct(fmt):
        operator = SparseEinsum(SPMM)
        return lambda: operator(A=fmt, B=rhs)

    return Case(
        name=name,
        family=family,
        construct=construct,
        oracle=dense.astype(np.float64) @ rhs.astype(np.float64),
        single=dense.dtype == np.float32,
        reps=reps,
        build_format=lambda: build(dense),
        refs=refs or {},
        dense=dense,
        rhs=rhs,
    )


def reference_cases(seed: int, formats=("ell", "groupcoo", "coo")) -> list[Case]:
    rng = stream(seed, "reference")
    dense = fill(uniform_mask("reference"), rng)
    rhs = rng.standard_normal((REF_SHAPE[1], REF_COLS))
    return [
        spmm_case(
            f"ref256x192/{fmt}", fmt, dense, rhs, FORMAT_BUILDERS[fmt], reps=12,
            refs=None if position else yardsticks(dense, rhs),
        )
        for position, fmt in enumerate(formats)
    ]


def kernel_spmm_cases(seed: int) -> list[Case]:
    cases: list[Case] = []
    for graph in GRAPHS:
        rng = stream(seed, f"graph/{graph}")
        dense = fill(graph_mask(graph), rng, np.float32)
        rhs = rng.standard_normal((dense.shape[1], 128)).astype(np.float32)
        formats = ("groupcoo", "coo", "ell") if graph in ELL_GRAPHS else ("groupcoo", "coo")
        for fmt in formats:
            reps = 1 if (graph, fmt) == ("soc-BlogCatalog", "coo") else 2
            refs = yardsticks(dense, rhs) if fmt == formats[0] else None
            cases.append(
                spmm_case(f"{graph}/{fmt}", fmt, dense, rhs, FORMAT_BUILDERS[fmt], reps, refs)
            )
    for density in (0.1, 0.3):
        rng = stream(seed, f"block/{density}")
        dense = fill(block_mask(f"block/{density}", 1024, 32, density), rng, np.float32)
        rhs = rng.standard_normal((1024, 256)).astype(np.float32)
        cases.append(
            spmm_case(
                f"block1024@{density}/blockgroupcoo", "blockgroupcoo", dense, rhs,
                block_builder(32), reps=3, refs=yardsticks(dense, rhs, blocksize=(32, 32)),
            )
        )
    return cases + reference_cases(seed)


def conv_case(seed: int, scene: str, channels: int, reps: int) -> Case:
    rng = stream(seed, f"conv/{scene}")
    kernel_map = scene_kernel_map(scene)
    scale = 1.0 / np.sqrt(channels * kernel_map.kernel_volume)
    weight = rng.standard_normal((kernel_map.kernel_volume, channels, channels)) * scale
    features = rng.standard_normal((kernel_map.num_voxels, channels))
    oracle = np.zeros((kernel_map.num_voxels, channels))
    for offset, pairs in enumerate(kernel_map.pairs):
        np.add.at(oracle, pairs[:, 0], features[pairs[:, 1]] @ weight[offset])

    def construct(_):
        conv = SparseConv3d(kernel_map, channels, channels)
        conv.weight = weight
        return lambda: conv(features)

    return Case(f"conv/{scene}/c{channels}", "conv", construct, oracle, single=False, reps=reps)


def equivariant_case(seed: int, l_max: int, channels: int, reps: int, batch: int = 64) -> Case:
    rng = stream(seed, f"equivariant/{l_max}/{channels}")
    cg = fully_connected_cg_tensor(l_max)
    slots = cg.slot_dimension()
    x = rng.standard_normal((batch, slots, channels))
    y = rng.standard_normal((batch, slots))
    w = rng.standard_normal((batch, cg.num_paths, channels, channels))
    w /= np.sqrt(channels * cg.num_paths)
    oracle = np.einsum("ijkl,bju,bk,bluw->biw", cg.dense, x, y, w, optimize=True)

    def construct(_):
        product = FullyConnectedTensorProduct(l_max, channels)
        return lambda: product(x, y, w)

    return Case(f"equivariant/l{l_max}/c{channels}", "equivariant", construct, oracle, False, reps)


def kernel_indirect_cases(seed: int) -> list[Case]:
    return [
        conv_case(seed, "pantry", 32, reps=2),
        conv_case(seed, "copyRoom", 64, reps=1),
        equivariant_case(seed, 1, 16, reps=12),
        equivariant_case(seed, 2, 16, reps=6),
        equivariant_case(seed, 2, 32, reps=3),
    ]


def auto_case(name: str, dense: np.ndarray, rhs: np.ndarray) -> Case:
    """``insum(..., format="auto")`` on a dense operand: the tuner path."""

    def construct(_):
        return lambda: insum(SPMM, A=dense, B=rhs, format="auto")

    return Case(f"auto/{name}", "auto", construct, dense @ rhs, single=False)


def spmm_family_cases(seed: int) -> list[Case]:
    """One SpMM case per format family: the reference request in ELL,
    GroupCOO and COO, and BlockGroupCOO on the fig-10 matrix at 0.1."""
    rng = stream(seed, "cold/block")
    block = fill(block_mask("block/0.1", 1024, 32, 0.1), rng, np.float32)
    rhs = rng.standard_normal((1024, 256)).astype(np.float32)
    name = "block1024@0.1/blockgroupcoo"
    return reference_cases(seed) + [
        spmm_case(name, "blockgroupcoo", block, rhs, block_builder(32), reps=1)
    ]


def cold_compile_cases(seed: int) -> list[Case]:
    """One case per expression family plus the four tuner regimes.

    The workload's operation is ``case.construct(fmt)()`` — a new operator
    object and its first call — on a fresh ``case.build_format()`` instance
    built outside the timed region, all four caches cleared before each one.
    """
    cases = spmm_family_cases(seed) + [
        conv_case(seed, "pantry", 32, reps=1),
        equivariant_case(seed, 2, 16, reps=1),
    ]
    for case in cases:
        case.reps = 1
    return cases + [auto_case(name, dense, rhs) for name, dense, rhs in tuner_regimes(seed)]


def tuner_regimes(seed: int, size: int = 512) -> list[tuple[str, np.ndarray, np.ndarray]]:
    """The four sparsity regimes of the tuner: ``(name, dense, rhs)``."""
    rng = stream(seed, "tuner")
    rhs = rng.standard_normal((size, 64))
    return [
        ("uniform", fill(uniform_mask("tuner/uniform", (size, size), 0.03), rng), rhs),
        ("powerlaw", fill(powerlaw_mask("tuner/powerlaw", size), rng), rhs),
        ("blockdiag", fill(block_mask("tuner/blockdiag", size, 16, 0.06), rng), rhs),
        ("pointcloud", fill(pointcloud_mask(size), rng), rhs),
    ]


# ---------------------------------------------------------------------------
# pattern_churn: never-seen matrices of a known shape
# ---------------------------------------------------------------------------
@dataclass
class ChurnCase:
    """A warm operator fed a stream of never-seen patterns.

    ``fresh(rng)`` returns ``(dense, oracle)``: the base matrix with its
    columns (block columns for the block format) permuted and its values
    redrawn.  Row occupancy — and with it every stored array's shape — is
    unchanged, so the plan cache hits while every identity-keyed memo and
    fingerprint misses, which is what a new point cloud does to a server.
    """

    name: str
    family: str
    build: Callable[[np.ndarray], Any]
    base: np.ndarray
    rhs: np.ndarray
    block: int = 1
    reps: int = 1

    @property
    def single(self) -> bool:
        return self.base.dtype == np.float32

    def fresh(self, rng) -> tuple[np.ndarray, np.ndarray]:
        rows, cols = np.nonzero(self.base)
        order = rng.permutation(self.base.shape[1] // self.block)
        cols = order[cols // self.block] * self.block + cols % self.block
        values = rng.standard_normal(rows.size).astype(self.base.dtype)
        dense = np.zeros_like(self.base)
        dense[rows, cols] = values
        oracle = np.zeros((self.base.shape[0], self.rhs.shape[1]))
        np.add.at(oracle, rows, values.astype(np.float64)[:, None] * self.rhs[cols])
        return dense, oracle


def reference_churn_cases(seed: int) -> list[ChurnCase]:
    """The four formats at the reference size (16x16 tiles for the block one)."""
    rng = stream(seed, "churn")
    base = fill(uniform_mask("churn"), rng)
    rhs = rng.standard_normal((REF_SHAPE[1], REF_COLS))
    cases = [
        ChurnCase(f"ref256x192/{fmt}", fmt, FORMAT_BUILDERS[fmt], base, rhs, reps=6)
        for fmt in ("groupcoo", "ell", "coo")
    ]
    blocks = fill(block_mask("churn/block", 256, 16, REF_DENSITY)[:, : REF_SHAPE[1]], rng)
    name = "ref256x192/blockgroupcoo"
    return cases + [ChurnCase(name, "blockgroupcoo", block_builder(16), blocks, rhs, 16, reps=6)]


def pattern_churn_cases(seed: int) -> list[ChurnCase]:
    rng = stream(seed, "churn/graph")
    graph = fill(graph_mask("cora"), rng, np.float32)
    rhs = rng.standard_normal((graph.shape[1], 32)).astype(np.float32)
    return reference_churn_cases(seed) + [
        ChurnCase("cora/groupcoo", "groupcoo", GroupCOO.from_dense, graph, rhs, reps=1)
    ]


# ---------------------------------------------------------------------------
# The serving mix
# ---------------------------------------------------------------------------
POOL = 16


@dataclass
class Slot:
    """One of the eight request shapes of the serving mix.

    ``fixed`` operands are long-lived (the sparse pattern, the CG arrays);
    ``varying`` names the dense operand that changes per request, drawn from
    a ``POOL``-entry pool with precomputed oracles.  A ``reuse`` slot sends
    pool entry 0 itself — one long-lived array, the codecs' cached tier —
    every other slot sends a copy, a fresh identity each time.
    """

    name: str
    expression: str
    fixed: dict[str, Any]
    varying: str
    pool: list[np.ndarray]
    oracles: list[np.ndarray]
    reuse: bool = False

    def request(self, index: int) -> tuple[dict[str, Any], np.ndarray]:
        entry = 0 if self.reuse else index % POOL
        operand = self.pool[entry] if self.reuse else self.pool[entry].copy()
        return {**self.fixed, self.varying: operand}, self.oracles[entry]


def serving_mix(seed: int) -> list[Slot]:
    """5 SpMM (GroupCOO/ELL, N in {16, 64}), 2 COO SpMV, 1 equivariant."""
    rng = stream(seed, "mix")
    rows, cols = REF_SHAPE
    patterns = {fmt: fill(uniform_mask(f"mix/{fmt}"), rng) for fmt in ("groupcoo", "ell", "coo")}
    formats = {fmt: FORMAT_BUILDERS[fmt](dense) for fmt, dense in patterns.items()}

    def spmm_slot(fmt: str, n_cols: int, reuse: bool = False) -> Slot:
        pool = [rng.standard_normal((cols, n_cols)) for _ in range(POOL)]
        oracles = [patterns[fmt] @ rhs for rhs in pool]
        name = f"spmm/{fmt}/n{n_cols}" + ("/reused" if reuse else "")
        return Slot(name, SPMM, {"A": formats[fmt]}, "B", pool, oracles, reuse)

    def spmv_slot(tag: str) -> Slot:
        pool = [rng.standard_normal(cols) for _ in range(POOL)]
        oracles = [patterns["coo"] @ x for x in pool]
        return Slot(f"spmv/coo/{tag}", SPMV, {"A": formats["coo"]}, "x", pool, oracles)

    cg = fully_connected_cg_tensor(1)
    batch, channels, slots = 8, 16, cg.slot_dimension()
    y = rng.standard_normal((batch, slots))
    w = rng.standard_normal((batch, cg.num_paths, channels, channels))
    w /= np.sqrt(channels * cg.num_paths)
    xs = [rng.standard_normal((batch, slots, channels)) for _ in range(POOL)]
    fixed = {"Z": np.zeros((batch, slots, channels)), "Y": y, "W": w, **cg.to_coo_arrays("CG")}
    equivariant = Slot(
        "equivariant/l1/c16", EQUIVARIANT_COO, fixed, "X", xs,
        [np.einsum("ijkl,bju,bk,bluw->biw", cg.dense, x, y, w, optimize=True) for x in xs],
    )
    return [
        spmm_slot("groupcoo", 64, reuse=True),
        spmm_slot("groupcoo", 64),
        spmm_slot("groupcoo", 16),
        spmm_slot("ell", 64),
        spmm_slot("ell", 16),
        spmv_slot("a"),
        spmv_slot("b"),
        equivariant,
    ]


def mix_digest(mix: list[Slot]) -> str:
    return digest([array for slot in mix for array in slot.oracles])
