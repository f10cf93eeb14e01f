"""The cost model's pick against every candidate, on seven sparsity regimes.

The tuner's acceptance benchmark: for each regime, time every candidate
format the tuner enumerates (warm SpMM), then let ``choose_format`` decide —
the calibrated cost model alone, nothing built or timed — and divide the
pick's time by the best candidate's.  Over the seven regimes the ratio must
have a geometric mean of at most 1.05 and a worst case of at most 1.15.

Regimes (dense operand width 64):

* **uniform** — uniformly random nonzeros, 512 rows;
* **powerlaw** — Pareto-distributed row lengths (degree-skewed), 512 rows;
* **blockdiag** — nonzeros forming dense 16x16 blocks, 512 rows;
* **pointcloud** — the voxel adjacency of a synthetic indoor scene's
  sparse-convolution kernel map, folded to 512 rows;
* **cora**, **amazon0505**, **soc-BlogCatalog** — the Figure 11 graph
  stand-ins of :mod:`repro.datasets.graphs` at 2048 rows.

Every structure and value is drawn from ``--seed``.  Runtimes are the best
of ``REPEATS`` warm executions of ``INSTANCES`` separately built operands and
operators per candidate, interleaved over all of them so that drift hits each
alike.  Run it on
both executors::

    PYTHONPATH=src python -m pytest -q -s benchmarks/bench_tuner_adaptive.py --seed 23
    CC=/bin/false PYTHONPATH=src python -m pytest -q -s benchmarks/bench_tuner_adaptive.py
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.insum.api import SparseEinsum
from repro.datasets import (
    build_kernel_map,
    generate_scene,
    load_graph_matrix,
    random_block_sparse_matrix,
    random_sparse_matrix,
    voxelize,
)
from repro.tuner import (
    CostModel,
    choose_format,
    enumerate_candidates,
    get_calibration,
    profile_operand,
)
from repro.utils.rng import rng as stream
from repro.utils.timing import Timer

N_COLS = 64
REPEATS, INSTANCES = 21, 2
GEOMEAN_BOUND, WORST_BOUND = 1.05, 1.15
GRAPHS = ("cora", "amazon0505", "soc-BlogCatalog")


def _powerlaw_matrix(size: int, rng: np.random.Generator) -> np.ndarray:
    """Degree-skewed rows: Pareto-distributed occupancy (graph-like)."""
    occupancy = np.minimum(size, (rng.pareto(1.2, size) * 4 + 1).astype(int))
    dense = np.zeros((size, size))
    for row, occ in enumerate(occupancy):
        dense[row, rng.choice(size, size=occ, replace=False)] = rng.standard_normal(occ)
    return dense


def _pointcloud_matrix(size: int, rng: np.random.Generator) -> np.ndarray:
    """Voxel adjacency of a synthetic scene's kernel map, folded to ``size`` rows."""
    kernel_map = build_kernel_map(voxelize(generate_scene("pantry", max_points=6000, rng=rng)))
    dense = np.zeros((size, size))
    for pairs in kernel_map.pairs:
        dense[pairs[:, 0] % size, pairs[:, 1] % size] = 1.0
    return dense


def regimes(seed: int) -> dict[str, np.ndarray]:
    """The seven matrices of one seed."""
    matrices = {
        "uniform": random_sparse_matrix((512, 512), 0.03, rng=stream(seed, "tuner.uniform")),
        "powerlaw": _powerlaw_matrix(512, stream(seed, "tuner.powerlaw")),
        "blockdiag": random_block_sparse_matrix(
            512, (16, 16), 0.06, rng=stream(seed, "tuner.blockdiag")
        ),
        "pointcloud": _pointcloud_matrix(512, stream(seed, "tuner.pointcloud")),
    }
    for graph in GRAPHS:
        csr = load_graph_matrix(graph, max_rows=2048, rng=stream(seed, f"tuner.{graph}"))
        matrices[graph] = csr.to_dense()
    return {name: dense.astype(np.float64) for name, dense in matrices.items()}


def _measure_all(candidates, dense, dense_rhs) -> dict[str, float]:
    """Interleaved best-of-``REPEATS`` warm runtimes in ms, keyed by label.

    Every candidate is built ``INSTANCES`` times, each with its own operator:
    one allocation can sit badly (six builds of pointcloud's GroupCOO(g=4)
    took 0.154-0.184 ms on the emitted loop), and the format's time is its
    best instance's.  All
    compile and warm up first, then timed rounds alternate over them,
    keeping each one's minimum — so CPU frequency ramp-up and other
    monotone drift hit every candidate equally.
    """
    oracle = dense @ dense_rhs
    operators = []
    for candidate in candidates:
        for _ in range(INSTANCES):
            operand = candidate.build(dense)
            operator = SparseEinsum("C[m,n] += A[m,k] * B[k,n]")
            result = operator(A=operand, B=dense_rhs)
            np.testing.assert_allclose(result, oracle, rtol=1e-9, atol=1e-9)
            operators.append((candidate.describe(), operator, operand))
    best = {label: float("inf") for label, _, _ in operators}
    for _ in range(REPEATS):
        for label, operator, operand in operators:
            with Timer() as timer:
                operator(A=operand, B=dense_rhs)
            best[label] = min(best[label], timer.elapsed_ms)
    return best


def test_the_model_picks_within_5pct_of_the_best_candidate(seed, report):
    rng = stream(seed, "tuner.rhs")
    model, cal = CostModel(), get_calibration()
    executor = "emitted C" if cal.emitted else "step list"
    lines = [
        f"seed {seed}, {executor}, n = {N_COLS}; calibration: flop_ns {cal.flop_ns:.3f}, "
        f"block_flop_ns {cal.block_flop_ns:.3f}, unit_ns {cal.unit_ns:.2f}",
        f"{'regime':<16s} {'candidate':<26s} {'model ms':>9s} {'measured ms':>12s}",
        "-" * 66,
    ]
    summary = []
    for name, dense in regimes(seed).items():
        dense_rhs = rng.standard_normal((dense.shape[1], N_COLS))
        profile = profile_operand(dense)
        candidates = enumerate_candidates(profile)
        measured = _measure_all(candidates, dense, dense_rhs)
        for candidate in candidates:
            lines.append(
                f"{name:<16s} {candidate.describe():<26s} "
                f"{model.estimate_ms(profile, candidate, N_COLS):9.4f} "
                f"{measured[candidate.describe()]:12.4f}"
            )
        chosen = choose_format(profile, n_cols=N_COLS, use_cache=False).candidate.describe()
        best_label, best_ms = min(measured.items(), key=lambda kv: kv[1])
        summary.append((name, chosen, best_label, measured[chosen] / best_ms))
        lines.append("")

    ratios = [ratio for *_, ratio in summary]
    geomean = math.exp(sum(math.log(ratio) for ratio in ratios) / len(ratios))
    lines.append(f"{'regime':<16s} {'model pick':<26s} {'best':<26s} {'pick/best':>9s}")
    for name, chosen, best_label, ratio in summary:
        lines.append(f"{name:<16s} {chosen:<26s} {best_label:<26s} {ratio:9.3f}")
    lines.append(f"geomean {geomean:.3f}, worst {max(ratios):.3f}")
    report(f"tuner_adaptive_seed{seed}", "\n".join(lines))
    assert geomean <= GEOMEAN_BOUND, f"geomean pick/best {geomean:.3f} > {GEOMEAN_BOUND}"
    assert max(ratios) <= WORST_BOUND, f"worst pick/best {max(ratios):.3f} > {WORST_BOUND}"
