"""The fully connected (uvw) equivariant tensor product (Section 6.5).

The computation contracts a sparse 4-D tensor of Clebsch–Gordan
coefficients against two input feature tensors and a per-sample weight
tensor.  Storing the CG tensor in COO form and grouping its entries by the
path coordinate ``CGL`` exposes a batched matmul over the channel
dimensions ``u`` and ``w``, which is what lets the generated kernel use
Tensor Cores.
"""

from __future__ import annotations

import numpy as np

from repro.core.inductor import InductorConfig
from repro.core.insum import Insum, fresh_output
from repro.core.insum.api import _Bound, remember
from repro.datasets.clebsch_gordan import CGTensor, fully_connected_cg_tensor
from repro.errors import ShapeError
from repro.formats.group_size import select_group_size
from repro.utils.arrays import padded_slots


class FullyConnectedTensorProduct:
    """Equivariant ``Z[b,i,w] = CG[i,j,k,l] * X[b,j,u] * Y[b,k] * W[b,l,u,w]``.

    A call reuses what the shapes and dtypes of ``X``, ``Y`` and ``W`` fix (a
    memo of :data:`~repro.core.insum.api._MEMO_ENTRIES` entries): the plan key
    and the kernel's pointers to the grouped CG arrays, read in place.
    """

    #: The entire user-written implementation (Table 1's "1 LoC").
    expression = (
        "Z[b,CGI[p,q],w] += CGV[p,q] * X[b,CGJ[p,q],u] * Y[b,CGK[p,q]] * W[b,CGL[p],u,w]"
    )
    lines_of_code = 1

    def __init__(
        self,
        l_max: int,
        channels: int,
        dtype: str = "fp32",
        group_size: int | None = None,
        config: InductorConfig | None = None,
    ):
        self.l_max = int(l_max)
        self.channels = int(channels)
        self.cg: CGTensor = fully_connected_cg_tensor(self.l_max)
        self.dtype = dtype
        self.config = config or InductorConfig.insum()
        self._grouped = self._group_by_path(group_size)
        self._operator = Insum(self.expression, config=self.config)
        self._compiled = None
        self._memo: dict[tuple, _Bound] = {}

    # -- CG grouping -------------------------------------------------------------
    def _group_by_path(self, group_size: int | None) -> dict[str, np.ndarray]:
        """Group the COO entries of the CG tensor by their path index (CGL)."""
        coo = self.cg.to_coo_arrays("CG")
        order = np.argsort(coo["CGL"], kind="stable")
        occupancy = np.bincount(coo["CGL"], minlength=self.cg.num_paths)
        if group_size is None:
            group_size = select_group_size(occupancy)
        group_size = max(1, int(group_size))

        groups = -(-occupancy // group_size)
        slots = padded_slots(occupancy, groups, group_size)
        grouped = {}
        for key in ("CGI", "CGJ", "CGK", "CGV"):
            flat = np.zeros(int(groups.sum()) * group_size, dtype=coo[key].dtype)
            flat[slots] = coo[key][order]
            grouped[key] = flat.reshape(-1, group_size)
        grouped["CGL"] = np.repeat(np.arange(occupancy.size, dtype=np.int64), groups)
        return grouped

    @property
    def group_size(self) -> int:
        return int(self._grouped["CGI"].shape[1])

    @property
    def slot_dimension(self) -> int:
        """Spherical-harmonic slots per side (the ``i``/``j``/``k`` extent)."""
        return self.cg.slot_dimension()

    # -- execution -----------------------------------------------------------------
    def random_inputs(
        self, batch: int, rng: np.random.Generator | int | None = 0
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Random ``(X, Y, W)`` inputs with the right shapes for this layer."""
        rng = np.random.default_rng(rng)
        slots = self.slot_dimension
        x = rng.standard_normal((batch, slots, self.channels))
        y = rng.standard_normal((batch, slots))
        w = rng.standard_normal((batch, self.cg.num_paths, self.channels, self.channels))
        w /= np.sqrt(self.channels * self.cg.num_paths)
        return x, y, w

    def __call__(self, x: np.ndarray, y: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Compute the tensor product for a batch of inputs."""
        bound, operands = self._bound(x, y, w)
        self._compiled = compiled = bound.compile(operands)
        return bound.run(compiled, operands)

    def _bound(self, x, y, w) -> tuple[_Bound, dict[str, np.ndarray]]:
        """The memo entry of a call (built on a miss) and its operands."""
        operands = {"X": np.asarray(x), "Y": np.asarray(y), "W": np.asarray(w)}
        key = tuple((array.shape, array.dtype) for array in operands.values())
        return self._memo.get(key) or self._bind(operands, key), operands

    def _bind(self, operands: dict[str, np.ndarray], key: tuple) -> _Bound:
        """The memo entry of an ``X``, ``Y`` and ``W`` signature (first call)."""
        batch = operands["X"].shape[0]
        if operands["Y"].shape[0] != batch or operands["W"].shape[0] != batch:
            raise ShapeError("X, Y, and W must share the batch dimension")
        dtype = np.result_type(*operands.values(), self._grouped["CGV"])
        shape = (batch, self.slot_dimension, self.channels)
        kept = {"Z": fresh_output(shape, dtype), **self._grouped}
        bound = self._operator.bind(dict.fromkeys(operands), kept, operands, shape)
        return remember(self._memo, key, bound)

    def estimate_ms(self, batch: int) -> float:
        """Modelled GPU runtime for a given batch size without executing."""
        slots = self.slot_dimension
        x = np.zeros((batch, slots, self.channels), dtype=np.float32)
        y = np.zeros((batch, slots), dtype=np.float32)
        w = np.zeros((batch, self.cg.num_paths, self.channels, self.channels), dtype=np.float32)
        output = fresh_output((batch, slots, self.channels), np.float32)
        tensors = {"Z": output, "X": x, "Y": y, "W": w, **self._grouped}
        self._compiled = self._operator.compile(**tensors)
        return self._compiled.price(self.dtype).estimated_ms

    def reference(self, x: np.ndarray, y: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Dense einsum over the full CG tensor, used by the tests.

        Plain NumPy on purpose: an oracle that shared the engine's code
        with the kernel it checks could not see a bug there.
        """
        return np.einsum("ijkl,bju,bk,bluw->biw", self.cg.dense, x, y, w, optimize=True)

    # -- introspection ----------------------------------------------------------------
    @property
    def compiled(self):
        return self._compiled

    @property
    def modeled_ms(self) -> float | None:
        return None if self._compiled is None else self._compiled.price(self.dtype).estimated_ms

    @property
    def compile_seconds(self) -> float:
        return self._operator.compile_seconds
