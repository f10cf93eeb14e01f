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

from repro import SparseEinsum, StackedSparse, clear_plan_cache, get_plan_cache
from repro.core.insum import api
from repro.engine import emit
from repro.runtime import plan_cache
from repro.formats import COO, ELL, BlockCOO, BlockGroupCOO, GroupCOO

SPMM = "C[m,n] += A[m,k] * B[k,n]"
STACKED = "C[s,m,n] += A[s,m,k] * B[k,n]"
SUMMED = "C[m,n] += A[s,m,k] * B[k,n]"


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
    assert len(operator._layouts) <= plan_cache.MAXSIZE


def counted_binds(monkeypatch) -> list:
    """The sparse operands that :meth:`SparseEinsum._bind_operand` binds (an
    insert into the operand's bindings), in order."""
    binds, bind = [], SparseEinsum._bind_operand

    def counted(self, key, name, operand, operands):
        binds.append(operand)
        return bind(self, key, name, operand, operands)

    monkeypatch.setattr(SparseEinsum, "_bind_operand", counted)
    return binds


def counted_full_binds(monkeypatch) -> list:
    """The sparse operands that :meth:`SparseEinsum._bind` binds through the
    whole rewrite pipeline, in order."""
    binds, bind = [], SparseEinsum._bind

    def counted(self, operands):
        binds.append(operands["A"])
        return bind(self, operands)

    monkeypatch.setattr(SparseEinsum, "_bind", counted)
    return binds


def test_cycling_over_64_live_operands_binds_each_operand_once(rng, monkeypatch):
    binds, full = counted_binds(monkeypatch), counted_full_binds(monkeypatch)
    dense, b = integer_matrix(rng), rhs(rng)
    operands = [GroupCOO.from_dense(dense) for _ in range(64)]
    operator = SparseEinsum(SPMM)
    for _ in range(3):
        for operand in operands:
            np.testing.assert_array_equal(operator(A=operand, B=b), dense @ b)
    assert len(binds) == 64
    assert {id(operand) for operand in binds} == {id(operand) for operand in operands}
    assert full == [operands[0]]  # one layout: every later operand binds from its template


#: Builders of a new instance of one layout (same shapes and dtypes) per format.
LAYOUT_BUILDERS = {
    "GroupCOO": lambda dense: GroupCOO.from_dense(dense, group_size=2),
    "ELL": ELL.from_dense,
    "COO": COO.from_dense,
    "BlockCOO": lambda dense: BlockCOO.from_dense(dense, (4, 4)),
    "BlockGroupCOO": lambda dense: BlockGroupCOO.from_dense(dense, (4, 4), group_size=2),
}


def count_calls(monkeypatch, owner, name: str) -> list:
    """Every call of ``owner.name`` (a module function or a class's method)."""
    calls, original = [], getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("fmt", [*LAYOUT_BUILDERS, "StackedSparse"])
def test_a_new_operand_of_a_seen_layout_skips_the_rewrite_pipeline(executor, fmt, rng, monkeypatch):
    stages = {
        name: count_calls(monkeypatch, owner, name)
        for owner, name in [
            (api, "rewrite_sparse_operand"),
            (api, "_infer_logical_extents"),
            (api.Insum, "bind"),
        ]
    }
    operator, b = SparseEinsum(STACKED if fmt == "StackedSparse" else SPMM), rhs(rng)
    dense = integer_matrix(rng)
    for round in range(4):
        values = dense * (round + 1)  # the same pattern, new values
        if fmt == "StackedSparse":
            stack = np.stack([values, -values])
            operand = StackedSparse.from_dense(stack, GroupCOO, group_size=2)
            expected = np.einsum("smk,kn->smn", stack, b)
        else:
            operand, expected = LAYOUT_BUILDERS[fmt](values), values @ b
        np.testing.assert_array_equal(operator(A=operand, B=b), expected)
    assert {name: len(calls) for name, calls in stages.items()} == dict.fromkeys(stages, 1)
    assert len(operator._layouts) == 1


def test_a_changed_layout_never_reuses_a_template(rng, monkeypatch):
    """Block shape, values dtype, stack depth and a COO's rank (against a
    stack of one logical shape) each make a new layout: its first operand
    binds in full, and every result is the einsum oracle's."""
    full = counted_full_binds(monkeypatch)
    dense, b = integer_matrix(rng, shape=(24, 20)), rhs(rng)
    stack = np.stack([dense, 2 * dense, -dense])
    pairs = [
        (SPMM, BlockCOO.from_dense(dense, (2, 2)), BlockCOO.from_dense(dense, (4, 4))),
        (
            SPMM,
            BlockGroupCOO.from_dense(dense, (2, 2), group_size=2),
            BlockGroupCOO.from_dense(dense, (4, 4), group_size=2),
        ),
        (SPMM, COO.from_dense(dense), COO.from_dense(dense.astype(np.float32))),
        (
            STACKED,
            StackedSparse.from_dense(stack[:2], GroupCOO, group_size=2),
            StackedSparse.from_dense(stack, GroupCOO, group_size=2),
        ),
        (SUMMED, COO.from_dense(stack), StackedSparse.from_dense(stack, COO)),
    ]
    subscripts = {SPMM: "mk,kn->mn", STACKED: "smk,kn->smn", SUMMED: "smk,kn->mn"}
    for expression, first, changed in pairs:
        operator, seen = SparseEinsum(expression), len(full)
        for operand in (first, changed, first):
            dense_operand = operand.to_dense().astype(np.float64)
            expected = np.einsum(subscripts[expression], dense_operand, b)
            np.testing.assert_array_equal(operator(A=operand, B=b), expected)
        assert full[seen:] == [first, changed]
        assert len(operator._layouts) == 2


def test_other_extents_bind_from_the_template_under_their_own_plan_key(rng, monkeypatch):
    """Nnz, group count, group size and ELL width are extents, which no
    rewrite reads: an operand that differs from the layout's first only in
    them binds from its template, under the plan key a full bind would take
    (its own arrays' shapes), and computes the einsum oracle's result."""
    full = counted_full_binds(monkeypatch)
    dense, b = integer_matrix(rng, shape=(24, 20)), rhs(rng)
    wider, sparser = dense.copy(), dense.copy()
    wider[5] = np.arange(1, 21)  # one full row: a wider ELL
    sparser[:4] = 0  # fewer entries, groups and blocks
    pairs = [
        (GroupCOO.from_dense(dense, group_size=2), GroupCOO.from_dense(dense, group_size=4)),
        (GroupCOO.from_dense(dense, group_size=2), GroupCOO.from_dense(sparser, group_size=2)),
        (ELL.from_dense(dense), ELL.from_dense(wider)),
        (COO.from_dense(dense), COO.from_dense(sparser)),
        (BlockCOO.from_dense(dense, (4, 4)), BlockCOO.from_dense(sparser, (4, 4))),
        (
            BlockGroupCOO.from_dense(dense, (4, 4), group_size=2),
            BlockGroupCOO.from_dense(sparser, (4, 4), group_size=4),
        ),
    ]
    for first, other in pairs:
        shapes = [[a.shape for a in operand.tensors("A").values()] for operand in (first, other)]
        assert shapes[0] != shapes[1]
        operator, seen = SparseEinsum(SPMM), len(full)
        for operand in (first, other, first):
            expected = operand.to_dense() @ b
            np.testing.assert_array_equal(operator(A=operand, B=b), expected)
        assert full[seen:] == [first]
        assert len(operator._layouts) == 1
        keys = [operator._bindings[operand].values()[0].key for operand in (first, other)]
        assert keys[0] != keys[1]
        assert keys[1] == SparseEinsum(SPMM)._bind({"A": other, "B": b}).key


def test_a_format_outside_the_package_binds_in_full_every_time(rng, monkeypatch):
    """A subclass may rewrite from more than its layout: no template."""

    class Subclass(GroupCOO):
        pass

    full = counted_full_binds(monkeypatch)
    dense, b = integer_matrix(rng), rhs(rng)
    operator = SparseEinsum(SPMM)
    operands = [Subclass.from_dense(dense) for _ in range(3)]
    for operand in operands:
        np.testing.assert_array_equal(operator(A=operand, B=b), dense @ b)
    assert full == operands
    assert len(operator._layouts) == 0


def test_one_array_under_two_names_binds_in_full(rng, monkeypatch):
    """A diagonal COO holds one coordinate array for both axes: its template
    could not tell which name a new instance's array belongs to, so none."""
    full = counted_full_binds(monkeypatch)
    b, diagonal, values = rhs(rng, rows=6), np.arange(6), rng.integers(1, 5, 6).astype(float)
    operator = SparseEinsum(SPMM)
    operands = [COO((6, 6), scale * values, (diagonal, diagonal)) for scale in (1.0, 2.0)]
    for operand in operands:
        np.testing.assert_array_equal(operator(A=operand, B=b), operand.to_dense() @ b)
    assert full == operands
    assert len(operator._layouts) == 0


def test_each_operand_of_a_layout_has_its_own_arrays_placed_and_checked(rng):
    """The template shares how the kernel is pinned, not the check: an
    operand whose values lie off their alignment runs the steps, correctly."""
    if not emit.compiles():
        pytest.skip("no usable C compiler on this machine")
    dense, b = integer_matrix(rng), rhs(rng)
    operator, aligned = SparseEinsum(SPMM), GroupCOO.from_dense(dense)
    np.testing.assert_array_equal(operator(A=aligned, B=b), dense @ b)
    raw = np.zeros(aligned.values.nbytes + 1, dtype=np.uint8)
    values = raw[1:].view(np.float64).reshape(aligned.values.shape)
    values[...] = aligned.values
    shifted = GroupCOO(dense.shape, aligned.group_rows, aligned.columns, values)
    assert not shifted.values.flags.aligned
    np.testing.assert_array_equal(operator(A=shifted, B=b), dense @ b)
    pinned = [operator._bindings[operand].values()[0].kernel[1] for operand in (aligned, shifted)]
    assert pinned[0] is not None and pinned[1] is None
    assert len(operator._layouts) == 1


def test_the_first_operand_of_a_layout_is_freed_when_dropped(executor, rng):
    dense, b = integer_matrix(rng), rhs(rng)
    operator = SparseEinsum(SPMM)
    first, second = GroupCOO.from_dense(dense), GroupCOO.from_dense(dense)
    for operand in (first, second):
        np.testing.assert_array_equal(operator(A=operand, B=b), dense @ b)
    alive = [weakref.ref(first), *map(weakref.ref, first.tensors("A").values())]
    del first
    assert [ref() for ref in alive] == [None] * len(alive)  # the template holds no array
    assert len(operator._layouts) == 1 and len(operator._bindings) == 1
    np.testing.assert_array_equal(operator(A=GroupCOO.from_dense(dense), B=b), dense @ b)


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
