"""Tests for StackedSparse: construction, round-trips, widened execution."""

import numpy as np
import pytest

from repro import SparseEinsum, StackedSparse, sparse_einsum
from repro.errors import FormatError, ShapeError
from repro.formats import BCSR, COO, ELL, BlockGroupCOO, GroupCOO


def integer_stack(rng, stack, m, k, density=0.2):
    """A stack of same-union-pattern matrices with integer-valued entries.

    Integer values keep floating-point addition exact, so batched and
    per-item executions must agree bit-for-bit regardless of reduction
    order.
    """
    mask = rng.random((m, k)) < density
    values = np.round(rng.standard_normal((stack, m, k)) * 8.0)
    dense = np.where(mask[None, :, :], values, 0.0)
    if not dense.any():
        dense[:, 0, 0] = 1.0
    return dense


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------
def test_from_dense_round_trip_groupcoo(rng):
    dense = integer_stack(rng, 4, 16, 24)
    stacked = StackedSparse.from_dense(dense, GroupCOO, group_size=4)
    assert stacked.stack_size == 4
    assert stacked.shape == (4, 16, 24)
    np.testing.assert_array_equal(stacked.to_dense(), dense)


def test_from_dense_round_trip_coo(rng):
    dense = integer_stack(rng, 3, 8, 12)
    stacked = StackedSparse.from_dense(dense, COO)
    np.testing.assert_array_equal(stacked.to_dense(), dense)


def test_from_dense_round_trip_ell(rng):
    dense = integer_stack(rng, 3, 8, 12)
    stacked = StackedSparse.from_dense(dense, ELL)
    np.testing.assert_array_equal(stacked.to_dense(), dense)


def test_from_dense_round_trip_bcsr(rng):
    dense = integer_stack(rng, 3, 16, 16, density=0.3)
    stacked = StackedSparse.from_dense(dense, BCSR, block_shape=(4, 4))
    np.testing.assert_array_equal(stacked.to_dense(), dense)


def test_from_dense_union_pattern_allows_per_item_zeros(rng):
    # Item 0 and item 1 have *different* nonzero positions; the union
    # pattern must carry both, storing explicit zeros where an item is zero.
    a = np.zeros((2, 4, 4))
    a[0, 0, 0] = 2.0
    a[1, 3, 3] = 5.0
    stacked = StackedSparse.from_dense(a, COO)
    np.testing.assert_array_equal(stacked.to_dense(), a)
    assert stacked.base.nnz == 2  # union pattern has both positions


def test_from_items_shares_metadata(rng):
    dense = integer_stack(rng, 3, 12, 10)
    pattern = GroupCOO.from_dense(np.where(dense.any(axis=0), 1.0, 0.0), group_size=2)
    items = [pattern.with_values(np.zeros_like(pattern.values)) for _ in range(3)]
    stacked = StackedSparse.from_items(items)
    assert stacked.stack_size == 3
    assert stacked.base.tensors("A")["AM"] is items[0].tensors("A")["AM"]


def test_from_items_rejects_mismatched_patterns(rng):
    a = COO.from_dense(np.eye(4))
    b = COO.from_dense(np.fliplr(np.eye(4)))
    with pytest.raises(FormatError, match="pattern"):
        StackedSparse.from_items([a, b])


def test_from_items_rejects_mixed_classes(rng):
    a = COO.from_dense(np.eye(4))
    b = GroupCOO.from_dense(np.eye(4), group_size=1)
    with pytest.raises(FormatError, match="expected"):
        StackedSparse.from_items([a, b])


def test_data_shape_validated(rng):
    base = COO.from_dense(np.eye(4))
    with pytest.raises(ShapeError):
        StackedSparse(base, np.zeros((2, base.nnz + 1)))


def test_item_accessor_views_one_slice(rng):
    dense = integer_stack(rng, 4, 10, 10)
    stacked = StackedSparse.from_dense(dense, COO)
    np.testing.assert_array_equal(stacked.item(2).to_dense(), dense[2])
    assert len(list(stacked.items())) == 4


# ---------------------------------------------------------------------------
# Widened execution: bit-for-bit against the per-item reference
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "factory,kwargs",
    [
        (COO, {}),
        (GroupCOO, {"group_size": 4}),
        (ELL, {}),
    ],
)
def test_stacked_spmm_matches_per_item_bit_for_bit(rng, factory, kwargs):
    dense = integer_stack(rng, 5, 16, 24)
    stacked = StackedSparse.from_dense(dense, factory, **kwargs)
    b = np.round(rng.standard_normal((24, 7)) * 8.0)
    batched = sparse_einsum("C[s,m,n] += A[s,m,k] * B[k,n]", A=stacked, B=b)
    reference = np.stack(
        [
            sparse_einsum("C[m,n] += A[m,k] * B[k,n]", A=item, B=b)
            for item in stacked.items()
        ]
    )
    np.testing.assert_array_equal(batched, reference)
    np.testing.assert_array_equal(batched, dense @ b)


def test_stacked_blockgroupcoo_spmm(rng):
    dense = np.zeros((3, 32, 32))
    dense[:, :8, :8] = np.round(rng.standard_normal((3, 8, 8)) * 4.0)
    dense[:, 16:24, 8:16] = np.round(rng.standard_normal((3, 8, 8)) * 4.0)
    stacked = StackedSparse.from_dense(
        dense, BlockGroupCOO, block_shape=(8, 8), group_size=2
    )
    b = np.round(rng.standard_normal((32, 5)) * 4.0)
    batched = sparse_einsum("C[s,m,n] += A[s,m,k] * B[k,n]", A=stacked, B=b)
    np.testing.assert_array_equal(batched, dense @ b)


def test_stacked_with_per_item_dense_operand(rng):
    dense = integer_stack(rng, 4, 12, 16)
    stacked = StackedSparse.from_dense(dense, GroupCOO, group_size=2)
    b = np.round(rng.standard_normal((4, 16, 6)) * 8.0)
    batched = sparse_einsum("C[s,m,n] += A[s,m,k] * B[s,k,n]", A=stacked, B=b)
    np.testing.assert_array_equal(batched, np.einsum("smk,skn->smn", dense, b))


def test_stacked_float_values_match_to_tolerance(rng):
    dense = np.where(
        rng.random((16, 20))[None] < 0.25, rng.standard_normal((6, 16, 20)), 0.0
    )
    stacked = StackedSparse.from_dense(dense, GroupCOO, group_size=4)
    b = rng.standard_normal((20, 8))
    batched = sparse_einsum("C[s,m,n] += A[s,m,k] * B[k,n]", A=stacked, B=b)
    np.testing.assert_allclose(batched, dense @ b, atol=1e-12)


@pytest.mark.parametrize("emitter", ["C", "steps"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=lambda d: np.dtype(d).name)
@pytest.mark.parametrize(
    "factory,kwargs",
    [(COO, {}), (GroupCOO, {"group_size": 4}), (BlockGroupCOO, {"block_shape": (4, 4)})],
)
def test_stacked_float_spmm_equals_per_item(rng, factory, kwargs, dtype, emitter, request):
    """The numerics contract on float normals (``engine/specialize.py``).

    The emitted loop nest adds in storage order, stack or no stack — a block
    format's register tile sums each update's block row from zero first — so a
    coalesced execution *is* its per-request ones, bit for bit.  On the step
    list a row's duplicates are summed inside the dot — a stack of ``s`` items
    runs ``s x K @ K x n`` per run of equal targets where one request runs
    ``1 x K``, and BLAS orders the two sums differently (float64 results
    differ in their last bits on this host's OpenBLAS) — so there the contract
    is agreement to a few ulp of the terms summed, and bit equality holds on
    integer-valued data only (the tests above).
    """
    if emitter == "steps":
        request.getfixturevalue("steps_only")
    mask = rng.random((32, 40)) < 0.3
    dense = np.where(mask[None], rng.standard_normal((5, 32, 40)), 0.0).astype(dtype)
    b = rng.standard_normal((40, 16)).astype(dtype)
    stacked = StackedSparse.from_dense(dense, factory, **kwargs)
    operator = SparseEinsum("C[s,m,n] += A[s,m,k] * B[k,n]")
    batched = operator(A=stacked, B=b)
    reference = np.stack(
        [sparse_einsum("C[m,n] += A[m,k] * B[k,n]", A=item, B=b) for item in stacked.items()]
    )
    assert batched.dtype == reference.dtype == dtype
    if emitter == "C":
        if isinstance(operator.compiled.specialized.emitted, str):
            pytest.skip("no usable C compiler on this machine")
        assert batched.tobytes() == reference.tobytes()
    else:
        terms = np.abs(dense).astype(np.float64) @ np.abs(b).astype(np.float64)
        assert (np.abs(batched - reference) <= 8 * np.finfo(dtype).eps * terms).all()


def test_stack_index_collision_raises(rng):
    dense = integer_stack(rng, 2, 8, 8)
    stacked = StackedSparse.from_dense(dense, COO)
    with pytest.raises(FormatError, match="collides"):
        # COO introduces the position variable "p"; using it as the stack
        # index must be rejected, not silently miscompiled.
        sparse_einsum("C[p,m,n] += A[p,m,k] * B[k,n]", A=stacked, B=np.zeros((8, 3)))


def test_rank_mismatch_raises(rng):
    from repro.errors import EinsumValidationError

    stacked = StackedSparse.from_dense(integer_stack(rng, 2, 8, 8), COO)
    with pytest.raises(EinsumValidationError, match="accessed with"):
        sparse_einsum("C[m,n] += A[m,k] * B[k,n]", A=stacked, B=np.zeros((8, 3)))


def test_nesting_rejected(rng):
    stacked = StackedSparse.from_dense(integer_stack(rng, 2, 8, 8), COO)
    with pytest.raises(FormatError, match="nesting"):
        StackedSparse(stacked, stacked.data[None])
