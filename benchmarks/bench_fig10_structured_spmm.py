"""Figure 10: structured (block-sparse) SpMM vs TorchBSR vs dense matmul.

The paper sweeps sparsity on a 4096x4096 FP16 matrix with 32x32 blocks and
reports speedup over dense matmul.  Here the sweep is evaluated with the
analytical device model at a 2048x2048 scale (documented in EXPERIMENTS.md),
and pytest-benchmark additionally times the NumPy execution of our kernel at
one representative sparsity.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import format_series
from repro.baselines import DenseMatmul, TorchBSRSpMM
from repro.datasets import random_block_sparse_matrix
from repro.kernels import StructuredSpMM

SIZE = 2048
BLOCK = (32, 32)
SPARSITIES = [0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99]


@pytest.fixture(scope="module")
def sweep_results(modelled_group_size):
    ours, torchbsr, dense = [], [], []
    placeholder = np.zeros((SIZE, SIZE), dtype=np.float32)
    dense_ms = DenseMatmul(dtype="fp16").modeled_ms(placeholder, placeholder)
    for sparsity in SPARSITIES:
        matrix = random_block_sparse_matrix(SIZE, BLOCK, 1.0 - sparsity, rng=0)
        group_size = modelled_group_size(matrix, BLOCK, SIZE)
        ours_ms = StructuredSpMM(
            matrix, BLOCK, group_size=group_size, dtype="fp16"
        ).estimate_ms(SIZE)
        bsr_ms = TorchBSRSpMM(matrix, BLOCK, dtype="fp16").modeled_ms(placeholder)
        ours.append(dense_ms / ours_ms)
        torchbsr.append(dense_ms / bsr_ms)
        dense.append(1.0)
    return ours, torchbsr, dense


def test_fig10_structured_spmm_sweep(sweep_results, report, benchmark):
    ours, torchbsr, dense = sweep_results
    report(
        "fig10_structured_spmm",
        format_series(
            "sparsity",
            SPARSITIES,
            {"ours_vs_dense": ours, "torchbsr_vs_dense": torchbsr, "dense": dense},
            title=f"Figure 10 — speedup over dense matmul ({SIZE}x{SIZE}, 32x32 blocks, FP16)",
        ),
    )

    # Shape checks mirroring the paper's claims.
    crossover_ours = next(s for s, v in zip(SPARSITIES, ours) if v >= 1.0)
    crossover_bsr = next(s for s, v in zip(SPARSITIES, torchbsr) if v >= 1.0)
    assert crossover_ours <= crossover_bsr  # our crossover happens earlier (25% vs 40%)
    assert ours[-1] > 5.0  # large speedup over dense in the hypersparse regime
    wins = sum(o >= b * 0.95 for o, b in zip(ours, torchbsr))
    assert wins >= len(SPARSITIES) - 2  # we match or beat TorchBSR nearly everywhere

    # Time the real NumPy execution at 90% sparsity, reduced size.
    matrix = random_block_sparse_matrix(512, BLOCK, 0.1, rng=1).astype(np.float64)
    dense_operand = np.random.default_rng(0).standard_normal((512, 256))
    op = StructuredSpMM(matrix, BLOCK, dtype="fp16")
    result = benchmark(op, dense_operand)
    np.testing.assert_allclose(result, matrix @ dense_operand, atol=1e-6)
