"""The reused call of a SparseEinsum: one binding hit, one plan-cache lookup, the kernel.

A repeat call of one execution signature (the same format instance, dense
operands of the same shapes and dtypes) reuses its binding, which lives as
long as the format instance: the rewrite, the operator and plan key, the
output placeholder and, where the plan runs its emitted loop nest, the data
pointers of the format's arrays.  These tests pin down what that reuse must
not change — in-place writes are seen, the plan cache counts every call,
threads share an operator, each operand binds once however many others are
alive — on both emitters.
"""

import sys
import threading
import weakref

import numpy as np
import pytest

from repro import SparseEinsum, clear_plan_cache, get_plan_cache
from repro.core.insum import api
from repro.engine import emit
from repro.runtime import plan_cache
from repro.formats import COO, ELL, BlockCOO, BlockGroupCOO, GroupCOO

SPMM = "C[m,n] += A[m,k] * B[k,n]"


def integer_matrix(rng, shape=(24, 20), density=0.3) -> np.ndarray:
    """Integer-valued (exact under every summation order) sparse matrix."""
    values = rng.integers(-4, 5, size=shape).astype(np.float64)
    values[values == 0] = 1.0
    return np.where(rng.random(shape) < density, values, 0.0)


def rhs(rng, rows=20, cols=19) -> np.ndarray:
    return rng.integers(-4, 5, size=(rows, cols)).astype(np.float64)


@pytest.mark.parametrize("fmt", [GroupCOO, ELL, COO])
def test_in_place_writes_between_reused_calls_are_seen(executor, fmt, rng):
    dense, b = integer_matrix(rng), rhs(rng)
    operand = fmt.from_dense(dense)
    operator = SparseEinsum(SPMM)
    np.testing.assert_array_equal(operator(A=operand, B=b), dense @ b)
    operand.values *= 3.0  # the format's own array, read in place
    b *= -2.0  # the caller's buffer, given again
    np.testing.assert_array_equal(operator(A=operand, B=b), (3.0 * dense) @ b)
    assert len(operator._bindings[operand]) == 1


def test_clearing_the_plan_cache_between_reused_calls_counts_one_miss(executor, rng):
    dense, b = integer_matrix(rng), rhs(rng)
    operand, operator = GroupCOO.from_dense(dense), SparseEinsum(SPMM)
    first = operator(A=operand, B=b)
    clear_plan_cache()
    second = operator(A=operand, B=b)
    third = operator(A=operand, B=b)
    stats = get_plan_cache().stats()
    assert (stats.misses, stats.hits) == (1, 1)
    assert first.tobytes() == second.tobytes() == third.tobytes()


def test_a_reused_call_reads_pointers_for_the_result_and_the_dense_operands_only(rng, monkeypatch):
    if not emit.compiles():
        pytest.skip("no usable C compiler on this machine")
    operand, b = ELL.from_dense(integer_matrix(rng)), rhs(rng)
    operator = SparseEinsum(SPMM)
    operator(A=operand, B=b)
    layout = operator.compiled.specialized.emitted.layout
    read = []
    address = emit._address
    monkeypatch.setattr(emit, "_address", lambda array: read.append(array) or address(array))
    operator(A=operand, B=b)
    # The result, and B (twice where its placement checks the cache line).
    reused = [kind for name, _, kind in layout if name == "B"] == ["reused"]
    assert len(read) == 2 + reused < len(layout)


def test_alternating_formats_build_one_insum_per_rewritten_expression(rng, monkeypatch):
    built = []

    class Counted(api.Insum):
        def __init__(self, expression, *args, **kwargs):
            built.append(expression)
            super().__init__(expression, *args, **kwargs)

    monkeypatch.setattr(api, "Insum", Counted)
    dense, b = integer_matrix(rng), rhs(rng)
    operands = [GroupCOO.from_dense(dense), ELL.from_dense(dense)]
    operator = SparseEinsum(SPMM)
    for call in range(6):
        np.testing.assert_array_equal(operator(A=operands[call % 2], B=b), dense @ b)
    assert len(built) == len(set(built)) == 2
    assert operator.rewritten_expression == built[1]


def test_a_rewritten_expression_carries_no_extent(rng):
    """One operator per format, whatever the shapes, group and block sizes:
    which is why ``_operators`` needs no bound."""
    operator = SparseEinsum(SPMM)
    for shape in [(16, 24), (32, 40)]:
        dense = integer_matrix(rng, shape=shape)
        b = rhs(rng, rows=shape[1], cols=5)
        for operand in [
            COO.from_dense(dense),
            ELL.from_dense(dense),
            GroupCOO.from_dense(dense, group_size=2),
            GroupCOO.from_dense(dense, group_size=4),
            BlockCOO.from_dense(dense, (4, 4)),
            BlockCOO.from_dense(dense, (8, 8)),
            BlockGroupCOO.from_dense(dense, (4, 4), group_size=2),
        ]:
            np.testing.assert_array_equal(operator(A=operand, B=b), dense @ b)
    assert len(operator._operators) == 5


def test_memos_stay_bounded(rng, monkeypatch):
    monkeypatch.setattr(plan_cache, "MAXSIZE", 16)
    operator, b = SparseEinsum(SPMM), rhs(rng)
    for _ in range(3 * plan_cache.MAXSIZE):
        dense = integer_matrix(rng)
        operand = COO.from_dense(dense)
        np.testing.assert_array_equal(operator(A=operand, B=b), dense @ b)
        assert 1 <= len(operator._bindings) <= plan_cache.MAXSIZE
    assert len(operator._operators) <= plan_cache.MAXSIZE
    assert len(operator._rewrites) <= plan_cache.MAXSIZE


def counted_binds(monkeypatch) -> list:
    """The sparse operands that :meth:`SparseEinsum._bind` binds, in order."""
    binds, bind = [], SparseEinsum._bind

    def counted(self, operands):
        binds.append(operands["A"])
        return bind(self, operands)

    monkeypatch.setattr(SparseEinsum, "_bind", counted)
    return binds


def test_cycling_over_64_live_operands_binds_each_operand_once(rng, monkeypatch):
    binds = counted_binds(monkeypatch)
    dense, b = integer_matrix(rng), rhs(rng)
    operands = [GroupCOO.from_dense(dense) for _ in range(64)]
    operator = SparseEinsum(SPMM)
    for _ in range(3):
        for operand in operands:
            np.testing.assert_array_equal(operator(A=operand, B=b), dense @ b)
    assert len(binds) == 64
    assert {id(operand) for operand in binds} == {id(operand) for operand in operands}


def test_a_dropped_operand_frees_its_bindings(executor, rng):
    dense, b = integer_matrix(rng), rhs(rng)
    operand, operator = GroupCOO.from_dense(dense), SparseEinsum(SPMM)
    np.testing.assert_array_equal(operator(A=operand, B=b), dense @ b)
    alive = weakref.ref(operand)
    del operand
    assert alive() is None
    assert len(operator._bindings) == 0
    np.testing.assert_array_equal(operator(A=GroupCOO.from_dense(dense), B=b), dense @ b)


def test_one_operand_keeps_at_most_the_bound_of_bindings(rng, monkeypatch):
    monkeypatch.setattr(plan_cache, "MAXSIZE", 4)
    binds = counted_binds(monkeypatch)
    dense = integer_matrix(rng)
    operand, operator = COO.from_dense(dense), SparseEinsum(SPMM)
    for width in range(1, 3 * plan_cache.MAXSIZE + 1):
        b = rhs(rng, cols=width)
        np.testing.assert_array_equal(operator(A=operand, B=b), dense @ b)
        assert 1 <= len(operator._bindings[operand]) <= plan_cache.MAXSIZE
    assert len(binds) == 3 * plan_cache.MAXSIZE
    assert operator._bindings[operand].stats().evictions == 2 * plan_cache.MAXSIZE


def test_eight_threads_share_one_operator_across_formats(executor, rng):
    dense = integer_matrix(rng, shape=(40, 36))
    # 24 live operands, eight of each format, each bound by the racing threads.
    operands = [fmt.from_dense(dense) for _ in range(8) for fmt in (GroupCOO, ELL, COO)]
    buffers = [rhs(rng, rows=36, cols=17) for _ in range(8)]
    each = 40
    calls = [(operands[(3 * t + i) % 24], buffers[t]) for t in range(8) for i in range(each)]
    reference, operator = SparseEinsum(SPMM), SparseEinsum(SPMM)
    serial = [reference(A=operand, B=b).tobytes() for operand, b in calls]
    # ``operator`` is fresh: the threads race to bind every operand first.
    results: dict[int, bytes] = {}
    start = threading.Barrier(8)

    def work(thread: int) -> None:
        start.wait(timeout=60)
        for i in range(each * thread, each * (thread + 1)):
            operand, b = calls[i]
            results[i] = operator(A=operand, B=b).tobytes()

    threads = [threading.Thread(target=work, args=(t,)) for t in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads inside the call path, not between calls
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert [results[i] for i in range(len(calls))] == serial
    assert [len(operator._bindings[operand]) for operand in operands] == [1] * 24
    np.testing.assert_array_equal(operator(A=operands[0], B=buffers[0]), dense @ buffers[0])


@pytest.mark.parametrize(
    "tensors",
    [
        {"B": np.zeros((3, 4)), "A": np.zeros(5, dtype=np.int64)},
        {"x": [1.0, 2.0], "C": np.zeros((2, 2), dtype=np.float32)[:, :1], "s": 3.0},
        {"M": np.float32(2.0), "V": np.zeros((0, 2), dtype=">f8")},
    ],
)
def test_the_signature_is_the_sorted_shape_and_dtype_of_every_operand(tensors):
    expected = tuple(
        sorted((name, np.asarray(t).shape, np.asarray(t).dtype.str) for name, t in tensors.items())
    )
    assert api.Insum("C[i] += A[i]")._signature(tensors) == expected
