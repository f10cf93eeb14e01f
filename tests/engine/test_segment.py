"""Differential suite for the bucketed segment-sum scatter.

The contract under test (``repro.engine.segment``): for every target row
and every trailing shape, contributions are summed sequentially in storage
order and the sum is added to the row.  The reference below applies the
updates one at a time into zeros — the order ``np.add.at`` uses — and the
comparison is *bit* equality, because a stacked execution and its per-item
ones must agree exactly.
"""

import numpy as np
import pytest

from repro.engine.segment import ADD_AT_THRESHOLD, plan_runs, plan_scatter, segment_add

ROWS = 48
DTYPES = [np.float32, np.float64, np.int64, np.complex128]
TRAILING = [(), (1,), (5,), (3, 4)]


def draw_index(rng, shape: str) -> np.ndarray:
    """A scatter index with the named run-length structure."""
    if shape == "disjoint":
        return rng.permutation(ROWS)[:40]
    if shape == "one-run":
        return np.full(300, 7)
    if shape == "power-law":
        # A few rows take most updates, many rows one or two: dozens of
        # distinct run lengths, including long single-run buckets.
        return np.minimum(ROWS - 1, rng.pareto(0.7, 600).astype(np.int64))
    if shape == "short":
        return rng.integers(0, 4, size=ADD_AT_THRESHOLD - 1)
    if shape == "empty":
        return np.zeros(0, dtype=np.int64)
    raise AssertionError(shape)


def draw_source(rng, count: int, trailing: tuple, dtype) -> np.ndarray:
    """Values spread over six decades, so a different summation order shows."""
    shape = (count,) + trailing
    values = rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3, shape)
    if np.issubdtype(dtype, np.complexfloating):
        values = values + 1j * rng.standard_normal(shape)
    if np.issubdtype(dtype, np.integer):
        values = values * 1e3
    return values.astype(dtype)


def sequential_reference(index, source, trailing) -> np.ndarray:
    out = np.zeros((ROWS,) + trailing, dtype=source.dtype)
    for position, row in enumerate(index):
        out[row] += source[position]
    return out


@pytest.mark.parametrize("with_plan", [False, True], ids=["no-plan", "plan"])
@pytest.mark.parametrize("trailing", TRAILING, ids=str)
@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
@pytest.mark.parametrize("shape", ["disjoint", "one-run", "power-law", "short", "empty"])
def test_segment_add_is_bit_equal_to_sequential_scatter(rng, shape, dtype, trailing, with_plan):
    index = draw_index(rng, shape)
    source = draw_source(rng, index.size, trailing, dtype)
    plan = plan_scatter(index, ROWS) if with_plan else None
    actual = np.zeros((ROWS,) + trailing, dtype=dtype)
    segment_add(actual, index, source, plan=plan)
    np.testing.assert_array_equal(actual, sequential_reference(index, source, trailing))


def test_stacked_and_single_sources_agree_bitwise(rng):
    """One column of a stacked source sums exactly like the
    same column scattered on its own as a 1-D source."""
    index = draw_index(rng, "power-law")
    plan = plan_scatter(index, ROWS)
    stacked = draw_source(rng, index.size, (6,), np.float32)
    together = np.zeros((ROWS, 6), dtype=np.float32)
    segment_add(together, index, stacked, plan=plan)
    for column in range(6):
        alone = np.zeros(ROWS, dtype=np.float32)
        segment_add(alone, index, np.ascontiguousarray(stacked[:, column]), plan=plan)
        np.testing.assert_array_equal(together[:, column], alone)


def test_sum_is_added_to_a_nonzero_target_once(rng):
    index = draw_index(rng, "power-law")
    source = draw_source(rng, index.size, (5,), np.float64)
    base = rng.standard_normal((ROWS, 5))
    actual = base.copy()
    segment_add(actual, index, source)
    np.testing.assert_array_equal(actual, base + sequential_reference(index, source, (5,)))


def test_plan_buckets_partition_the_updates(rng):
    index = draw_index(rng, "power-law")
    plan = plan_scatter(index, ROWS)
    assert not plan.is_disjoint
    assert sorted(plan.order.tolist()) == list(range(index.size))
    assert len(set(plan.targets.tolist())) == plan.targets.size
    lengths = [bucket[0] for bucket in plan.buckets]
    assert lengths == sorted(set(lengths))
    element_end = run_end = 0
    for length, first, last, run_a, run_b in plan.buckets:
        assert (first, run_a) == (element_end, run_end)
        assert last - first == length * (run_b - run_a)
        rows = index[plan.order[first:last]].reshape(run_b - run_a, length)
        np.testing.assert_array_equal(rows, np.repeat(plan.targets[run_a:run_b, None], length, 1))
        # Storage order survives inside every run.
        positions = plan.order[first:last].reshape(run_b - run_a, length)
        assert (np.diff(positions, axis=1) > 0).all()
        element_end, run_end = last, run_b
    assert (element_end, run_end) == (index.size, plan.targets.size)
    np.testing.assert_array_equal(plan.targets[plan.run_of], index)


@pytest.mark.parametrize("with_plan", [False, True], ids=["no-plan", "plan"])
def test_a_negative_index_and_the_row_it_wraps_to_are_one_target(with_plan):
    """``-1`` and ``3`` name one row of a 4-row target: both updates land."""
    index = np.array([-1, 3] + [0] * 20)  # past the threshold: planned, not ``np.add.at``
    plan = plan_scatter(index, 4) if with_plan else None
    actual = np.zeros((4, 2))
    segment_add(actual, index, np.ones((index.size, 2)), plan)
    expected = np.zeros((4, 2))
    np.add.at(expected, index, np.ones((index.size, 2)))
    np.testing.assert_array_equal(actual, expected)
    assert actual[3].tolist() == [2.0, 2.0]
    # Out of range below -extent stays out of range.
    with pytest.raises(IndexError):
        segment_add(np.zeros((4, 2)), np.array([-5, 3] + [0] * 20), np.ones((22, 2)))


def test_run_windows_wrap_a_negative_index_into_the_run_of_its_row():
    index = np.array([-1, 3, 0, 0])
    windows, _ = plan_runs(index, 4, lambda length: 8)
    assert sorted(row for *_, rows, _ in windows for row in rows.tolist()) == [0, 3]


@pytest.mark.parametrize("trailing", [(), (3,)], ids=str)
@pytest.mark.parametrize("shape", ["disjoint", "power-law"])
def test_unsafe_cast_raises_on_every_planned_lowering(rng, shape, trailing):
    """float64 sums into an int64 target: the final fancy ``+=`` refuses the
    cast, whichever lowering produced the sums (``np.add.at`` itself would
    truncate every update silently)."""
    index = draw_index(rng, shape)
    source = draw_source(rng, index.size, trailing, np.float64)
    target = np.zeros((ROWS,) + trailing, dtype=np.int64)
    with pytest.raises(TypeError):
        segment_add(target, index, source, plan=plan_scatter(index, ROWS))
    assert not target.any()


def test_narrow_source_widens_into_the_target(rng):
    index = draw_index(rng, "power-law")
    source = draw_source(rng, index.size, (3,), np.float32)
    actual = np.zeros((ROWS, 3), dtype=np.float64)
    segment_add(actual, index, source)
    expected = sequential_reference(index, source, (3,)).astype(np.float64)
    np.testing.assert_array_equal(actual, expected)


@pytest.mark.parametrize("source", [2.5, np.arange(3.0)], ids=["scalar", "row"])
def test_broadcast_source_defers_to_add_at(rng, source):
    """A source without one row per update broadcasts as ``np.add.at`` does."""
    index = draw_index(rng, "power-law")
    expected = np.zeros((ROWS, 3))
    np.add.at(expected, index, source)
    actual = np.zeros((ROWS, 3))
    segment_add(actual, index, source, plan=plan_scatter(index, ROWS))
    np.testing.assert_array_equal(actual, expected)


def test_unit_trailing_source_broadcasts_across_target_columns(rng):
    index = draw_index(rng, "power-law")
    source = draw_source(rng, index.size, (1,), np.float64)
    actual = np.zeros((ROWS, 4))
    segment_add(actual, index, source)
    expected = np.repeat(sequential_reference(index, source, (1,)), 4, axis=1)
    np.testing.assert_array_equal(actual, expected)


# ---------------------------------------------------------------------------
# Windows over runs of equal targets (the run-windowed plans' schedule)
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("per_window", [1, 3, 1000])
@pytest.mark.parametrize("shape", ["disjoint", "one-run", "power-law", "short", "empty"])
def test_run_windows_partition_the_index_into_whole_runs_of_one_length(rng, shape, per_window):
    index = draw_index(rng, shape)
    gathered = rng.integers(0, 9, size=(index.size, 2))
    asked = []
    windows, (ordered,) = plan_runs(
        index, ROWS, lambda length: asked.append(length) or per_window, [(gathered, 0)]
    )
    seen_rows, seen_updates, stop = [], [], 0
    for span, cut, rows, runs in windows:
        assert span.start == stop and rows.size == runs <= per_window  # consecutive, bounded
        stop = span.stop
        positions = np.arange(index.size)[cut]  # a slice or an index array
        length = positions.size // runs
        # ``runs`` runs of one length, each all one target, in storage order.
        targets = index[positions].reshape(runs, length)
        assert (targets == rows[:, None]).all()
        assert (np.diff(positions.reshape(runs, length), axis=1) > 0).all()
        np.testing.assert_array_equal(ordered[span], gathered[positions])
        if isinstance(cut, slice):
            assert cut.step is None and cut.stop - cut.start == positions.size
        else:
            assert (np.diff(positions) != 1).any()  # consecutive updates are a slice
        seen_rows.extend(rows.tolist())
        seen_updates.extend(positions.tolist())
    # Every update once, every target row in exactly one run of one window.
    assert sorted(seen_updates) == list(range(index.size))
    assert sorted(seen_rows) == np.unique(index).tolist()
    _, counts = np.unique(index, return_counts=True)
    assert sorted(set(asked)) == np.unique(counts).tolist()


def test_run_windows_take_at_least_one_run_and_hold_no_view_of_their_inputs(rng):
    index = draw_index(rng, "power-law")
    gathered = rng.integers(0, 9, size=(3, index.size))
    windows, (ordered,) = plan_runs(index, ROWS, lambda length: 0, [(gathered, 1)])
    assert {runs for *_, runs in windows} == {1}
    assert ordered.shape == gathered.shape
    for array in (ordered, *(part for span, cut, rows, _ in windows for part in (cut, rows))):
        if isinstance(array, np.ndarray):
            assert not np.shares_memory(array, index) and not np.shares_memory(array, gathered)
    # A disjoint index is windows of singleton runs in storage order: all slices.
    disjoint = draw_index(rng, "disjoint")
    windows, _ = plan_runs(disjoint, ROWS, lambda length: 16)
    assert [(cut.start, cut.stop) for _, cut, _, _ in windows] == [(0, 16), (16, 32), (32, 40)]
    np.testing.assert_array_equal(np.concatenate([rows for _, _, rows, _ in windows]), disjoint)
