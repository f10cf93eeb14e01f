"""Tests for the structured / unstructured SpMM applications."""

import numpy as np
import pytest

from repro import InductorConfig
from repro.core.insum import SparseEinsum
from repro.datasets import random_block_sparse_matrix, random_sparse_matrix
from repro.formats import CSR, BlockGroupCOO, GroupCOO
from repro.formats.blocking import block_occupancy
from repro.formats.group_size import (
    optimal_group_size,
    power_of_two_candidates,
    select_group_size,
)
from repro.kernels import StructuredSpMM, UnstructuredSpMM


def test_structured_spmm_correctness(rng):
    matrix = random_block_sparse_matrix(128, (16, 16), 0.3, rng=1).astype(np.float64)
    dense = rng.standard_normal((128, 24))
    op = StructuredSpMM(matrix, block_shape=(16, 16))
    np.testing.assert_allclose(op(dense), matrix @ dense, atol=1e-8)
    assert op.lines_of_code == 1
    assert op.modeled_ms is not None and op.modeled_ms > 0
    assert op.compiled.is_fused


def test_structured_spmm_accepts_prebuilt_format(block_sparse_matrix, rng):
    from repro.formats import BlockGroupCOO

    fmt = BlockGroupCOO.from_dense(block_sparse_matrix, (8, 8), group_size=2)
    op = StructuredSpMM(fmt)
    dense = rng.standard_normal((64, 8))
    np.testing.assert_allclose(op(dense), block_sparse_matrix @ dense, atol=1e-9)


def _modelled_pick_oracle(matrix, block_shape, num_cols):
    """The strict-``<`` loop ``StructuredSpMM`` once ran to pick its group size."""
    occupancy = block_occupancy(matrix, block_shape)
    candidates = power_of_two_candidates(
        optimal_group_size(occupancy), max_group=int(max(occupancy.max(), 1))
    )
    best, best_ms = None, float("inf")
    for candidate in candidates:
        fmt = BlockGroupCOO.from_dense(matrix, block_shape, group_size=candidate)
        probe = SparseEinsum(StructuredSpMM.expression, config=InductorConfig.insum())
        dense = np.zeros((fmt.shape[1], num_cols), dtype=np.float32)
        cost_ms = probe.estimate(A=fmt, B=dense).price("fp16").estimated_ms
        if cost_ms < best_ms:
            best, best_ms = candidate, cost_ms
    return best


@pytest.mark.parametrize(
    "size, block, density, seed, num_cols",
    [
        (128, (16, 16), 0.25, 2, 64),
        (2048, (32, 32), 0.05, 0, 2048),
        (2048, (32, 32), 0.5, 0, 2048),
    ],
    ids=["small", "fig10-density0.05", "fig10-density0.5"],
)
def test_group_size_sweep_matches_the_modelled_pick(size, block, density, seed, num_cols):
    """``select_group_size`` over modelled time returns what the old loop did."""
    matrix = random_block_sparse_matrix(size, block, density, rng=seed)
    occupancy = block_occupancy(matrix, block)
    picked = select_group_size(
        occupancy,
        runtime_fn=lambda g: StructuredSpMM(
            matrix, block, group_size=g, dtype="fp16"
        ).estimate_ms(num_cols),
        max_group=int(max(occupancy.max(), 1)),
    )
    assert picked == _modelled_pick_oracle(matrix, block, num_cols)


def test_structured_spmm_estimate_without_execution(rng):
    matrix = random_block_sparse_matrix(128, (16, 16), 0.3, rng=3).astype(np.float64)
    op = StructuredSpMM(matrix, block_shape=(16, 16))
    ms = op.estimate_ms(256)
    assert ms > 0


def test_unstructured_spmm_from_csr(rng):
    matrix = random_sparse_matrix((96, 80), 0.1, rng=4).astype(np.float64)
    csr = CSR.from_dense(matrix)
    op = UnstructuredSpMM(csr)
    dense = rng.standard_normal((80, 32))
    np.testing.assert_allclose(op(dense), matrix @ dense, atol=1e-8)
    assert op.group_size >= 1
    assert op.estimate_ms(128) > 0


def test_unstructured_spmm_from_dense_and_groupcoo(rng):
    matrix = random_sparse_matrix((48, 40), 0.2, rng=5).astype(np.float64)
    dense = rng.standard_normal((40, 8))
    from_dense = UnstructuredSpMM(matrix)
    from_fmt = UnstructuredSpMM(GroupCOO.from_dense(matrix, group_size=2))
    np.testing.assert_allclose(from_dense(dense), matrix @ dense, atol=1e-8)
    np.testing.assert_allclose(from_fmt(dense), matrix @ dense, atol=1e-8)


def test_unstructured_spmm_with_ablation_config(rng):
    matrix = random_sparse_matrix((48, 40), 0.2, rng=6).astype(np.float64)
    dense = rng.standard_normal((40, 8))
    op = UnstructuredSpMM(matrix, config=InductorConfig.torchinductor_default())
    np.testing.assert_allclose(op(dense), matrix @ dense, atol=1e-8)


def test_spmm_expression_is_single_line():
    assert StructuredSpMM.expression.count("\n") == 0
    assert UnstructuredSpMM.expression.count("\n") == 0
