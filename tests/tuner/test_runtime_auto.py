"""Tuner integration with the serving runtime: server + stacked operands."""

from __future__ import annotations

import numpy as np
import pytest

from repro import InsumServer, StackedSparse, sparse_einsum
from repro.datasets import random_block_sparse_matrix, random_sparse_matrix
from repro.errors import FormatError, ShapeError
from repro.formats import COO
from repro.tuner import get_decision_cache


def test_server_auto_format_serves_mixed_regimes(rng):
    uniform = random_sparse_matrix((96, 80), 0.06, rng=1).astype(np.float64)
    blocky = random_block_sparse_matrix(96, (16, 16), 0.1, rng=2).astype(np.float64)
    rhs_uniform = rng.standard_normal((80, 16))
    rhs_blocky = rng.standard_normal((96, 16))

    with InsumServer(num_workers=2, auto_format=True) as server:
        requests = []
        for _ in range(4):
            requests.append(("C[m,n] += A[m,k] * B[k,n]", dict(A=uniform, B=rhs_uniform)))
            requests.append(
                ("C[m,n] += A[m,k] * B[k,n]", dict(A=COO.from_dense(blocky), B=rhs_blocky))
            )
        results = server.run_batch(requests)
        for position, result in enumerate(results):
            expected = (uniform @ rhs_uniform) if position % 2 == 0 else (blocky @ rhs_blocky)
            np.testing.assert_allclose(result.unwrap(), expected)
        stats = server.stats()
        assert stats.completed == 8
        assert stats.failed == 0
    # Two regimes -> at most two scoring runs; the rest hit the decision cache.
    assert get_decision_cache().hits >= 6


def test_server_auto_format_dense_promotion_only_for_logical_expressions(rng):
    """A raw indirect Einsum with sparse-looking arrays must stay raw."""
    dense = random_sparse_matrix((64, 48), 0.1, rng=3).astype(np.float64)
    coo = COO.from_dense(dense)
    rhs = rng.standard_normal((48, 8))
    with InsumServer(num_workers=1, auto_format=True) as server:
        operands = dict(
            C=np.zeros((64, 8)), AV=coo.values, AM=coo.coords[0], AK=coo.coords[1], B=rhs
        )
        (result,) = server.run_batch([("C[AM[p],n] += AV[p] * B[AK[p],n]", operands)])
        np.testing.assert_allclose(result.unwrap(), dense @ rhs)


def test_server_without_auto_format_unchanged(rng):
    dense = random_sparse_matrix((64, 48), 0.1, rng=4).astype(np.float64)
    rhs = rng.standard_normal((48, 8))
    with InsumServer(num_workers=1) as server:
        (result,) = server.run_batch(
            [("C[m,n] += A[m,k] * B[k,n]", dict(A=COO.from_dense(dense), B=rhs))]
        )
        np.testing.assert_allclose(result.unwrap(), dense @ rhs)


# ---------------------------------------------------------------------------
# StackedSparse format="auto"
# ---------------------------------------------------------------------------
def test_stacked_from_dense_auto(rng):
    pattern = rng.random((48, 64)) < 0.08
    stack = rng.standard_normal((6, 48, 64)) * pattern
    batch = StackedSparse.from_dense(stack, "auto")
    assert batch.base.fixed_length
    rhs = rng.standard_normal((64, 12))
    out = sparse_einsum("C[s,m,n] += A[s,m,k] * B[k,n]", A=batch, B=rhs)
    np.testing.assert_allclose(out, np.einsum("smk,kn->smn", stack, rhs))


def test_stacked_auto_picks_block_base_on_block_pattern(rng):
    stack = np.stack(
        [random_block_sparse_matrix(64, (16, 16), 0.1, rng=5) for _ in range(3)]
    ).astype(np.float64)
    # Give every item the same pattern with different values.
    stack = stack[0] * rng.standard_normal((3, 1, 1))
    batch = StackedSparse.from_dense(stack, "auto")
    assert batch.base.format_name in ("BlockCOO", "BlockGroupCOO")
    rhs = rng.standard_normal((64, 8))
    out = sparse_einsum("C[s,m,n] += A[s,m,k] * B[k,n]", A=batch, B=rhs)
    np.testing.assert_allclose(out, np.einsum("smk,kn->smn", stack, rhs))


def test_stacked_auto_rejects_kwargs_and_bad_strings(rng):
    stack = rng.standard_normal((2, 8, 8)) * (rng.random((8, 8)) < 0.3)
    with pytest.raises(FormatError):
        StackedSparse.from_dense(stack, "auto", group_size=4)
    with pytest.raises(FormatError):
        StackedSparse.from_dense(stack, "fastest")
    with pytest.raises(ShapeError):
        StackedSparse.from_dense(rng.standard_normal((2, 3, 4, 5)), "auto")
