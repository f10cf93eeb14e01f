"""End-to-end tests of auto_format, the decision cache, and format="auto"."""

from __future__ import annotations

import numpy as np
import pytest

from repro import auto_format, insum, sparse_einsum
from repro.core.insum.api import SparseEinsum
from repro.datasets import random_block_sparse_matrix, random_sparse_matrix
from repro.errors import EinsumValidationError
from repro.formats import COO, GroupCOO
from repro.formats.base import SparseFormat
from repro.tuner import get_decision_cache
from repro.tuner.auto import choose_format
from repro.tuner.profile import profile_operand


@pytest.fixture
def uniform(rng):
    return random_sparse_matrix((96, 80), 0.08, rng=rng).astype(np.float64)


@pytest.fixture
def blocky():
    return random_block_sparse_matrix(96, (16, 16), 0.12, rng=1).astype(np.float64)


# ---------------------------------------------------------------------------
# auto_format
# ---------------------------------------------------------------------------
def test_auto_format_returns_fixed_length_format(uniform):
    fmt = auto_format(uniform)
    assert isinstance(fmt, SparseFormat)
    assert fmt.fixed_length
    np.testing.assert_allclose(fmt.to_dense(), uniform)


def test_auto_format_picks_block_format_on_block_data(blocky):
    fmt = auto_format(blocky)
    assert fmt.format_name in ("BlockCOO", "BlockGroupCOO")
    np.testing.assert_allclose(fmt.to_dense(), blocky)


def test_auto_format_reformats_a_sparse_instance(blocky):
    coo = COO.from_dense(blocky)
    fmt = auto_format(coo)
    assert fmt.format_name != "COO"
    np.testing.assert_allclose(fmt.to_dense(), blocky)


def test_auto_format_keeps_matching_instance(uniform):
    fmt = auto_format(uniform)
    again = auto_format(fmt)
    assert again is fmt  # already in the chosen format: no conversion


def test_the_model_decides_and_only_the_winner_is_built(uniform, monkeypatch):
    """No candidate is built, compiled or timed to make the decision: the one
    build is the winner's, from the matrix, on a miss and on a hit alike."""
    from repro.tuner.auto import auto_format_with_decision
    from repro.tuner.candidates import Candidate

    built: list[tuple[Candidate, SparseFormat]] = []
    build = Candidate.build

    def counting(candidate, dense):
        built.append((candidate, build(candidate, dense)))
        return built[-1][1]

    monkeypatch.setattr(Candidate, "build", counting)
    for _ in range(2):  # a miss, then a hit
        built.clear()
        fmt, decision = auto_format_with_decision(uniform, n_cols=32)
        assert [candidate for candidate, _ in built] == [decision.candidate]
        assert built[0][1] is fmt
    assert decision.bucket == (*profile_operand(uniform).bucket(), 32)
    assert decision.chosen is decision.ranked[0]
    assert [s.modeled_ms for s in decision.ranked] == sorted(s.modeled_ms for s in decision.ranked)


# ---------------------------------------------------------------------------
# Decision cache
# ---------------------------------------------------------------------------
def test_decisions_are_cached_by_bucket(uniform):
    cache = get_decision_cache()
    profile = profile_operand(uniform)
    first = choose_format(profile)
    assert len(cache) == 1
    # Same regime, different values: served from the cache.
    similar = random_sparse_matrix((96, 80), 0.08, rng=999).astype(np.float64)
    second = choose_format(profile_operand(similar))
    assert second is first
    assert cache.hits >= 1


def test_different_regimes_get_different_decisions(uniform, blocky):
    uniform_choice = choose_format(profile_operand(uniform))
    # Pad the blocky matrix profile to the same shape? Different shapes are
    # different buckets already; assert the candidate differs by regime.
    block_choice = choose_format(profile_operand(blocky))
    assert uniform_choice.candidate != block_choice.candidate


# ---------------------------------------------------------------------------
# insum / sparse_einsum format="auto"
# ---------------------------------------------------------------------------
def test_insum_format_auto_matches_dense_reference(uniform, rng):
    dense_rhs = rng.standard_normal((80, 24))
    out = insum("C[m,n] += A[m,k] * B[k,n]", A=uniform, B=dense_rhs, format="auto")
    np.testing.assert_allclose(out, uniform @ dense_rhs)


def test_insum_named_format(uniform, rng):
    dense_rhs = rng.standard_normal((80, 16))
    for name in ("coo", "ell", "groupcoo"):
        out = insum("C[m,n] += A[m,k] * B[k,n]", A=uniform, B=dense_rhs, format=name)
        np.testing.assert_allclose(out, uniform @ dense_rhs, err_msg=name)


def test_insum_format_class(uniform, rng):
    dense_rhs = rng.standard_normal((80, 16))
    out = insum("C[m,n] += A[m,k] * B[k,n]", A=uniform, B=dense_rhs, format=GroupCOO)
    np.testing.assert_allclose(out, uniform @ dense_rhs)


def test_insum_named_block_formats(blocky, rng):
    """Named block formats derive the block shape from the profile."""
    dense_rhs = rng.standard_normal((96, 16))
    for name in ("blockcoo", "blockgroupcoo"):
        out = insum("C[m,n] += A[m,k] * B[k,n]", A=blocky, B=dense_rhs, format=name)
        np.testing.assert_allclose(out, blocky @ dense_rhs, err_msg=name)


def test_variable_length_formats_rejected(uniform, rng):
    from repro.formats import CSR

    dense_rhs = rng.standard_normal((80, 4))
    with pytest.raises(EinsumValidationError):
        insum("C[m,n] += A[m,k] * B[k,n]", A=uniform, B=dense_rhs, format="csr")
    with pytest.raises(EinsumValidationError):
        insum("C[m,n] += A[m,k] * B[k,n]", A=uniform, B=dense_rhs, format=CSR)


def test_insum_without_format_is_untouched(uniform, rng):
    """The raw indirect-Einsum path must not change behaviour."""
    coo = COO.from_dense(uniform)
    dense_rhs = rng.standard_normal((80, 8))
    out = insum(
        "C[AM[p],n] += AV[p] * B[AK[p],n]",
        C=np.zeros((96, 8)),
        AV=coo.values,
        AM=coo.coords[0],
        AK=coo.coords[1],
        B=dense_rhs,
    )
    np.testing.assert_allclose(out, uniform @ dense_rhs)


def test_unknown_format_name_raises(uniform, rng):
    with pytest.raises(EinsumValidationError):
        insum(
            "C[m,n] += A[m,k] * B[k,n]", A=uniform, B=rng.standard_normal((80, 4)), format="dense"
        )


def test_sparse_operand_disambiguation(rng):
    sparse_a = random_sparse_matrix((32, 32), 0.1, rng=rng)
    sparse_b = random_sparse_matrix((32, 32), 0.1, rng=rng)
    out = sparse_einsum(
        "C[m,n] += A[m,k] * B[k,n]",
        A=sparse_a,
        B=sparse_b,
        format="auto",
        sparse_operand="B",
    )
    np.testing.assert_allclose(out, sparse_a @ sparse_b, rtol=1e-5, atol=1e-6)


def test_auto_operator_records_decision(uniform, rng):
    op = SparseEinsum("C[m,n] += A[m,k] * B[k,n]", format="auto")
    out = op(A=uniform, B=rng.standard_normal((80, 16)))
    assert out.shape == (96, 16)
    assert op.last_decision is not None
