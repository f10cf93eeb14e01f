"""Figure 13: ablation of formats and compiler optimisations on structured SpMM.

Rows (top to bottom, as in the paper): COO, COO+Group, COO+Group+Block —
all compiled with the stock (unfused, template-matmul) backend — then the
blocked/grouped format with Tensor Core fusion, and finally with Lazy
Broadcasting as well.  Values are normalised runtimes (lower is better),
with the plain COO schedule as 1.0, plus the TorchBSR reference.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import InductorConfig, SparseEinsum
from repro.analysis import format_table
from repro.baselines import TorchBSRSpMM
from repro.datasets import random_block_sparse_matrix
from repro.formats import BlockGroupCOO, COO, GroupCOO
from repro.kernels import StructuredSpMM

SIZE = 4096
BLOCK = (32, 32)
BLOCK_DENSITY = 0.1  # 90% sparsity, as in the paper
NUM_COLS = SIZE
EXPRESSION = "C[m,n] += A[m,k] * B[k,n]"


def _estimate(fmt, config) -> float:
    einsum = SparseEinsum(EXPRESSION, config=config)
    dense = np.zeros((SIZE, NUM_COLS), dtype=np.float32)
    return einsum.estimate(A=fmt, B=dense).price("fp16").estimated_ms


@pytest.fixture(scope="module")
def ablation_rows():
    matrix = random_block_sparse_matrix(SIZE, BLOCK, BLOCK_DENSITY, rng=0)
    stock = InductorConfig.torchinductor_default()
    tc_fusion = InductorConfig.insum_tensor_core_only()
    full = InductorConfig.insum()

    timings = {
        "COO": _estimate(COO.from_dense(matrix), stock),
        "COO + Group": _estimate(GroupCOO.from_dense(matrix, group_size=16), stock),
        "COO + Group + Block": _estimate(
            BlockGroupCOO.from_dense(matrix, BLOCK, group_size=4), stock
        ),
        "+ Tensor Core": _estimate(
            BlockGroupCOO.from_dense(matrix, BLOCK, group_size=4), tc_fusion
        ),
        "+ Lazy Broadcasting": _estimate(
            BlockGroupCOO.from_dense(matrix, BLOCK, group_size=4), full
        ),
    }
    torchbsr_ms = TorchBSRSpMM(matrix, BLOCK, dtype="fp16").modeled_ms(
        np.zeros((SIZE, NUM_COLS), dtype=np.float32)
    )
    return matrix, timings, torchbsr_ms


def test_fig13_ablation(ablation_rows, report, benchmark):
    matrix, timings, torchbsr_ms = ablation_rows
    baseline = timings["COO"]
    rows = [
        [name, ms, baseline / ms] for name, ms in timings.items()
    ] + [["TorchBSR (reference)", torchbsr_ms, baseline / torchbsr_ms]]
    report(
        "fig13_ablation",
        format_table(
            ["configuration", "modeled_ms", "speedup_vs_COO"],
            rows,
            title=(
                f"Figure 13 — ablation on structured SpMM "
                f"({SIZE}x{SIZE}, 90% sparse, 32x32 blocks)"
            ),
            float_format="{:.3f}",
        ),
    )

    # The paper's ordering, with one documented deviation (see EXPERIMENTS.md):
    # our cost model charges the unfused blocked schedule its full intermediate
    # DRAM traffic, so the format-only "COO + Group + Block" row does not show
    # the paper's additional gain over "COO + Group"; the gain appears once the
    # Tensor Core fusion extension removes those intermediates.
    assert timings["COO + Group"] < timings["COO"]
    assert timings["COO + Group + Block"] < timings["COO"]
    assert timings["+ Tensor Core"] < timings["COO + Group + Block"] / 2.0  # paper: 2.6x
    assert timings["+ Tensor Core"] < timings["COO + Group"]
    assert timings["+ Lazy Broadcasting"] <= timings["+ Tensor Core"]
    # Grouping alone is a large win (paper: ~8x), and the fully optimised
    # kernel beats the hand-written TorchBSR reference.
    assert baseline / timings["COO + Group"] > 3.0
    assert timings["+ Lazy Broadcasting"] < torchbsr_ms * 1.05

    # Time real executions of the fused vs unfused schedules at reduced size.
    small = random_block_sparse_matrix(512, BLOCK, BLOCK_DENSITY, rng=1).astype(np.float64)
    dense = np.random.default_rng(0).standard_normal((512, 128))
    fused_op = StructuredSpMM(small, BLOCK, dtype="fp16")
    result = benchmark(fused_op, dense)
    np.testing.assert_allclose(result, small @ dense, atol=1e-6)
