"""Unit tests for the engine's caches and primitives.

Covers the identity token / derived-artefact cache, the segment-sum
scatter, per-instance profile memoization, and the garbage a compile
leaves behind.
"""

import gc
import sys

import numpy as np
import pytest

from repro import SparseEinsum
from repro.core.insum import plan_insum
from repro.engine import (
    array_token,
    clear_derived_cache,
    derived,
    derived_cache_size,
    plan_scatter,
    segment_add,
)
from repro.engine.specialize import SpecializedKernel
from repro.formats import BCSR, COO, CSR, ELL, BlockCOO, BlockGroupCOO, GroupCOO
from repro.tuner.profile import profile_operand


# ---------------------------------------------------------------------------
# Identity tokens and derived artefacts
# ---------------------------------------------------------------------------
def test_array_token_stable_per_object(rng):
    array = rng.standard_normal(16)
    assert array_token(array) == array_token(array)
    other = array.copy()
    assert array_token(other) != array_token(array)


def test_derived_memoizes_per_object(rng):
    array = rng.integers(0, 8, size=32)
    calls = []

    def build():
        calls.append(1)
        return plan_scatter(array, 8)

    first = derived(array, "test-plan", build)
    second = derived(array, "test-plan", build)
    assert first is second and len(calls) == 1


def test_derived_distinguishes_new_objects_after_gc(rng):
    array = rng.integers(0, 8, size=32)
    token = array_token(array)
    del array
    gc.collect()
    fresh = rng.integers(0, 8, size=32)
    assert array_token(fresh) != token


def test_pattern_churn_evicts_cleanly_and_returns_the_cache_to_its_start(rng, monkeypatch):
    """Artefacts die with their array, and eviction never raises.

    An eviction callback runs inside whatever released the array — a
    ``clear_derived_cache()`` mid-way, or another callback — so it must
    tolerate keys that are already gone; a failure there only shows as an
    unraisable 'Exception ignored'.
    """
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    gc.collect()
    start = derived_cache_size()
    rhs = rng.standard_normal((24, 4))
    expressions = {
        COO: "C[AI0[p],n] += AV[p] * B[AI1[p],n]",
        GroupCOO: "C[AM[p],n] += AV[p,q] * B[AK[p,q],n]",
    }
    for round_ in range(60):
        dense = np.where(rng.random((16, 24)) < 0.4, 1.0, 0.0)
        for format_cls, expression in expressions.items():
            arrays = format_cls.from_dense(dense).tensors("A")
            tensors = {"C": np.zeros((16, 4)), "B": rhs, **arrays}
            # Forced 16-run windows: one run-window artefact per pattern.
            kernel = SpecializedKernel.build(plan_insum(expression, tensors), window_steps=16)
            kernel.run(tensors)
        if round_ == 30:
            assert derived_cache_size() > start
            clear_derived_cache()
    del kernel, tensors, arrays
    gc.collect()
    assert unraisable == []
    assert derived_cache_size() == start


# ---------------------------------------------------------------------------
# Segment-sum scatter
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("size,targets", [(0, 4), (5, 8), (200, 16), (200, 1)])
def test_segment_add_matches_add_at(rng, size, targets):
    index = rng.integers(0, targets, size=size)
    source = rng.standard_normal((size, 3))
    expected = rng.standard_normal((targets, 3))
    actual = expected.copy()
    np.add.at(expected, index, source)
    segment_add(actual, index, source)
    np.testing.assert_allclose(actual, expected, atol=1e-12)


def test_segment_add_disjoint_rows(rng):
    index = rng.permutation(64)[:32]  # unique targets
    plan = plan_scatter(index, 64)
    assert plan.is_disjoint
    source = rng.standard_normal((32, 4))
    expected = np.zeros((64, 4))
    np.add.at(expected, index, source)
    actual = np.zeros((64, 4))
    segment_add(actual, index, source, plan=plan)
    np.testing.assert_array_equal(actual, expected)


def test_segment_add_broadcast_scalar_source(rng):
    index = rng.integers(0, 4, size=100)
    expected = np.zeros(4)
    np.add.at(expected, index, 1.0)
    actual = np.zeros(4)
    segment_add(actual, index, 1.0)
    np.testing.assert_allclose(actual, expected, atol=1e-12)


def test_plan_scatter_rejects_multidim():
    with pytest.raises(ValueError):
        plan_scatter(np.zeros((2, 2), dtype=np.int64), 2)


# ---------------------------------------------------------------------------
# Profile memoization (all seven formats)
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "build",
    [
        lambda d: COO.from_dense(d),
        lambda d: CSR.from_dense(d),
        lambda d: ELL.from_dense(d),
        lambda d: GroupCOO.from_dense(d, group_size=2),
        lambda d: BCSR.from_dense(d, (4, 4)),
        lambda d: BlockCOO.from_dense(d, (4, 4)),
        lambda d: BlockGroupCOO.from_dense(d, (4, 4), group_size=2),
    ],
    ids=["coo", "csr", "ell", "groupcoo", "bcsr", "blockcoo", "blockgroupcoo"],
)
def test_profile_memoized_on_every_format(build, rng):
    dense = np.where(rng.random((16, 16)) < 0.3, rng.standard_normal((16, 16)), 0.0)
    fmt = build(dense)
    first = profile_operand(fmt)
    second = profile_operand(fmt)
    assert first is second  # the O(nnz) extraction ran once
    # A distinct instance re-profiles (and agrees structurally).
    other = build(dense)
    assert profile_operand(other) is not first
    assert profile_operand(other).unstructured_key() == first.unstructured_key()


def test_format_fingerprint_identity_semantics(rng):
    dense = np.where(rng.random((8, 8)) < 0.4, 1.0, 0.0)
    fmt = COO.from_dense(dense)
    assert fmt.fingerprint() == fmt.fingerprint()
    sibling = fmt.with_values(fmt.values * 2.0)  # shared metadata, new values
    assert sibling.fingerprint() == fmt.fingerprint()
    rebuilt = COO.from_dense(dense)  # same pattern, different arrays
    assert rebuilt.fingerprint() != fmt.fingerprint()


# ---------------------------------------------------------------------------
# Plan-cache contract
# ---------------------------------------------------------------------------
def test_plan_cache_entry_carries_specialized_closure(medium_sparse_matrix, rng):
    """A cache hit hands back the specialized closure alongside the plan."""
    from repro import clear_plan_cache
    from repro.core.insum.api import Insum
    from repro.runtime.plan_cache import get_plan_cache, plan_key

    coo = COO.from_dense(medium_sparse_matrix)
    tensors = {
        "C": np.zeros((64, 4)),
        "AV": coo.values,
        "AM": coo.coords[0],
        "AK": coo.coords[1],
        "B": rng.standard_normal((96, 4)),
    }
    clear_plan_cache()
    operator = Insum("C[AM[p],n] += AV[p] * B[AK[p],n]")
    compiled = operator.compile(**tensors)
    key = plan_key(
        operator.expression, operator.backend, operator.config, operator._signature(tensors)
    )
    entry = get_plan_cache().get(key)
    assert entry is not None
    assert entry.compiled is compiled  # one handle on the closure
    assert compiled.specialized is not None


# ---------------------------------------------------------------------------
# Garbage
# ---------------------------------------------------------------------------
def test_compile_leaves_no_cyclic_garbage(medium_sparse_matrix, rng):
    """Construct, first call and eviction free everything by reference count."""
    from repro import clear_plan_cache

    fmt = GroupCOO.from_dense(medium_sparse_matrix)
    dense_rhs = rng.standard_normal((96, 8))
    clear_plan_cache()
    gc.collect()
    gc.disable()
    try:
        operator = SparseEinsum("C[m,n] += A[m,k] * B[k,n]")
        operator(A=fmt, B=dense_rhs)
        clear_plan_cache()
        del operator
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_bounds_still_checked_on_first_use(rng):
    """The bounds-verdict memo must not suppress first-call validation."""
    from repro.core.insum.api import Insum
    from repro.errors import EinsumValidationError

    bad_index = np.array([0, 99], dtype=np.int64)  # out of range for B
    tensors = {
        "C": np.zeros((4, 2)),
        "AV": np.ones(2),
        "AM": np.array([0, 1], dtype=np.int64),
        "AK": bad_index,
        "B": rng.standard_normal((8, 2)),
    }
    with pytest.raises(EinsumValidationError):
        Insum("C[AM[p],n] += AV[p] * B[AK[p],n]")(**tensors)
