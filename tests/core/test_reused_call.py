"""The reused call of a SparseEinsum: one memo hit, one plan-cache lookup, the kernel.

A repeat call of one execution signature (the same format instance, dense
operands of the same shapes and dtypes) reuses its memo entry: the rewrite,
the operator and plan key, the output placeholder and, where the plan runs
its emitted loop nest, the data pointers of the format's arrays.  These tests
pin down what that reuse must not change — in-place writes are seen, the plan
cache counts every call, threads share an operator — on both emitters.
"""

import sys
import threading

import numpy as np
import pytest

from repro import SparseEinsum, clear_plan_cache, get_plan_cache
from repro.core.insum import api
from repro.engine import emit
from repro.formats import COO, ELL, GroupCOO

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
    assert len(operator._prepare_memo) == 1


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


def test_memos_stay_bounded(rng):
    operator, b = SparseEinsum(SPMM), rhs(rng)
    for _ in range(3 * api._MEMO_ENTRIES):
        dense = integer_matrix(rng)
        np.testing.assert_array_equal(operator(A=COO.from_dense(dense), B=b), dense @ b)
        assert 1 <= len(operator._prepare_memo) <= api._MEMO_ENTRIES
    assert len(operator._operators) <= api._MEMO_ENTRIES
    assert len(operator._rewrites) <= api._MEMO_ENTRIES


def test_eight_threads_share_one_operator_across_formats(executor, rng):
    dense = integer_matrix(rng, shape=(40, 36))
    operands = [GroupCOO.from_dense(dense), ELL.from_dense(dense), COO.from_dense(dense)]
    buffers = [rhs(rng, rows=36, cols=17) for _ in range(8)]
    operator = SparseEinsum(SPMM)
    each = 40
    calls = [(operands[(t + i) % 3], buffers[t]) for t in range(8) for i in range(each)]
    serial = [operator(A=operand, B=b).tobytes() for operand, b in calls]
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
