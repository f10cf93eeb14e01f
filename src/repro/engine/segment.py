"""Segment-sum scatter: how both executors lower ``np.add.at``.

``np.add.at`` defines what a scatter means, but on a source with a
trailing shape it processes one update at a time through the ufunc inner
loop — and so does ``np.add.reduceat(axis=0)`` on a 2-D array.  (The emitted
C loop nest of :mod:`repro.engine.emit` *is* that sequential loop, fused with
its gather; this module serves the step list, which runs every plan with a
dense reduction and every plan on a machine without a compiler.)  The plans
that keep their duplicates from the dot scatter through :func:`segment_add`:
a scatter index over several variables (sparse convolution's ``MAPX[p,q]``,
the grouped tensor product's ``CGI[p,q]`` — the weights are shared per
``p``) and one element per update (SpMV).  Every other scattering plan — the
SpMM family, plain or stacked — windows over the runs of equal targets
(:func:`plan_runs`), sums each run inside its ``np.matmul`` and never calls
:func:`segment_add`.  Two structure-aware rewrites cover the cases the
remaining plans produce:

* **disjoint rows** — when the scatter index has no duplicates, plain
  fancy-index ``+=`` is exact (each target row receives exactly one
  contribution) and runs at memcpy speed;
* **bucketed segment sum** — otherwise, sort the contributions by target
  row and group the runs of equal targets *by run length* (one permutation,
  memoized by the engine per metadata fingerprint).  All runs of one length
  then form a contiguous ``(runs, length, ...)`` slab that a single
  ``np.add.reduce(axis=1)`` sums, and the per-row sums are added into the
  target with one fancy-indexed ``+=``.

**Summation order contract.**  For every target row and every trailing
shape, the contributions are summed *sequentially in storage order* —
``((x0 + x1) + x2) + ...``, the order ``np.add.at`` applies them to a zero
row — and that sum is then added to the target.  The slab reduction keeps
it because the reduced axis is never the contiguous inner loop.  A source
with one element per update (1-D, or a trailing shape of ones) would make
it the inner loop, where NumPy sums pairwise; those sources accumulate
their run sums with a 1-D ``np.add.at`` instead, which is sequential by
definition and has a fast indexed loop.  A coalesced (stacked) execution
of these plans therefore sums each row's duplicates in the order the
per-request one does.  (The run-windowed plans make no such promise: their
duplicates are summed by the dot, in its BLAS's order — see the numerics
paragraph of :mod:`repro.engine.specialize`.)  Without a plan, fewer than
``ADD_AT_THRESHOLD`` updates go straight through ``np.add.at``, which
applies them to the target one by one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

#: Below this many updates the plain ``np.add.at`` loop wins (no sort,
#: no temporaries); the crossover is flat and forgiving.
ADD_AT_THRESHOLD = 16


@dataclass(frozen=True)
class ScatterPlan:
    """Precomputed structure of one scatter index array.

    The plan holds arrays of its own only — no view of the index it
    describes — so memoizing it under the index's identity
    (:func:`repro.engine.fingerprint.derived`) does not keep the index alive.

    Attributes
    ----------
    is_disjoint:
        True when the index has no duplicate targets, so fancy-index
        ``+=`` is exact and no reduction is needed.  The remaining fields
        are ``None`` / empty in that case.
    order:
        Permutation of the updates into *bucket order*: sorted by run
        length, then by target, then by storage position (both sorts
        stable, so every run keeps its storage order).
    targets:
        The distinct target rows, one per run, in bucket order.
    run_of:
        For every update in storage order, the position of its run in
        ``targets``.
    buckets:
        One ``(length, element_start, element_stop, run_start, run_stop)``
        tuple per distinct run length: elements
        ``order[element_start:element_stop]`` are ``run_stop - run_start``
        runs of ``length`` updates each, summing into
        ``targets[run_start:run_stop]``.
    """

    is_disjoint: bool
    order: np.ndarray | None = None
    targets: np.ndarray | None = None
    run_of: np.ndarray | None = None
    buckets: tuple[tuple[int, int, int, int, int], ...] = ()


def plan_scatter(index: np.ndarray, extent: int) -> ScatterPlan:
    """Analyse a 1-D scatter index once, for reuse across executions.

    The plan captures everything value-independent about the scatter: the
    duplicate structure, and — when duplicates exist — the bucket-order
    permutation and bucket boundaries that turn ``np.add.at`` into a few
    contiguous slab reductions.  An index in ``[-extent, 0)`` is wrapped by the
    target's ``extent`` first: a row addressed both ways is one target.
    """
    index = np.asarray(index)
    if index.ndim != 1:
        raise ValueError(f"plan_scatter expects a 1-D index, got shape {index.shape}")
    count = index.size
    if count == 0:
        return ScatterPlan(is_disjoint=True)
    if index.min() < 0:  # out of range stays so, and raises
        index = np.where((index < 0) & (index >= -extent), index + extent, index)
    by_target = np.argsort(index, kind="stable")
    sorted_index = index[by_target]
    run_start = np.empty(count, dtype=bool)
    run_start[0] = True
    np.not_equal(sorted_index[1:], sorted_index[:-1], out=run_start[1:])
    starts = np.flatnonzero(run_start)
    if starts.size == count:
        return ScatterPlan(is_disjoint=True)

    # Reorder whole runs by length; each run's elements stay consecutive.
    lengths = np.diff(starts, append=count)
    by_length = np.argsort(lengths, kind="stable")
    lengths = lengths[by_length]
    new_starts = np.cumsum(lengths) - lengths
    shift = np.repeat(starts[by_length] - new_starts, lengths)
    order = by_target[shift + np.arange(count)]
    run_of = np.empty(count, dtype=np.intp)
    run_of[order] = np.repeat(np.arange(lengths.size), lengths)

    edges = [0, *(np.flatnonzero(lengths[1:] != lengths[:-1]) + 1).tolist(), lengths.size]
    buckets = []
    for run_a, run_b in zip(edges[:-1], edges[1:]):
        length = int(lengths[run_a])
        first = int(new_starts[run_a])
        buckets.append((length, first, first + length * (run_b - run_a), run_a, run_b))
    return ScatterPlan(
        is_disjoint=False,
        order=order,
        targets=sorted_index[starts[by_length]],
        run_of=run_of,
        buckets=tuple(buckets),
    )


class RunWindows(NamedTuple):
    """:func:`plan_runs` of one index; like :class:`ScatterPlan`, no view of it."""

    #: One ``(span, cut, rows, runs)`` per window, in bucket order: ``runs``
    #: runs of one length whose updates are ``span`` of bucket order and
    #: ``cut`` of storage order (positions, or a slice when consecutive),
    #: summing into the distinct target ``rows``.
    windows: list[tuple[slice, "slice | np.ndarray", np.ndarray, int]]
    #: Bucket-ordered copies of the ``gathered`` arrays.
    ordered: list[np.ndarray]


def plan_runs(
    index: np.ndarray,
    extent: int,
    runs_per_window: Callable[[int], int],
    gathered: Sequence[tuple[np.ndarray, int]] = (),
) -> RunWindows:
    """Window a 1-D scatter index over its runs of equal targets.

    The run-windowed plans sum each run inside their dot, so a window holds
    whole runs of one length: ``runs_per_window(length)`` (at least one) per
    :func:`plan_scatter` bucket of ``index`` and ``extent``.  Every target row
    is one run of one window.  ``gathered`` lists ``(array, axis)`` pairs
    indexed like ``index``; each is copied into bucket order once, here.
    """
    plan = plan_scatter(index, extent)
    if plan.is_disjoint:  # every update is its own run, already in order
        order, targets = np.arange(index.size), np.array(index)
        buckets = ((1, 0, index.size, 0, index.size),) if index.size else ()
    else:
        order, targets, buckets = plan.order, plan.targets, plan.buckets
    windows = []
    for length, first, _, run_a, run_b in buckets:
        step = max(1, runs_per_window(length))
        for run in range(run_a, run_b, step):
            stop = min(run_b, run + step)
            span = slice(first + (run - run_a) * length, first + (stop - run_a) * length)
            cut = order[span]
            if cut[-1] - cut[0] == cut.size - 1 and (cut[1:] > cut[:-1]).all():
                cut = slice(int(cut[0]), int(cut[-1]) + 1)
            windows.append((span, cut, targets[run:stop], stop - run))
    return RunWindows(windows, [np.take(array, order, axis=axis) for array, axis in gathered])


def segment_add(
    target: np.ndarray,
    index: np.ndarray,
    source: np.ndarray,
    plan: ScatterPlan | None = None,
) -> None:
    """``target[index] += source`` along axis 0, duplicate-safe and fast.

    Equivalent to ``np.add.at(target, index, source)`` for a 1-D
    ``index``, but lowered to fancy-index ``+=`` when the index rows are
    disjoint and to a bucketed slab reduction otherwise (see the module
    docstring for the summation-order contract).

    Parameters
    ----------
    target:
        Output array, updated in place; axis 0 is the scattered axis.
    index:
        1-D integer array of target rows, one per leading source row.
    source:
        Contributions; ``source.shape[0] == index.size`` and the trailing
        shape broadcasts against ``target``'s trailing shape.
    plan:
        Optional precomputed :func:`plan_scatter` result for ``index`` and
        ``target.shape[0]`` (the engine memoizes these per metadata
        fingerprint); computed on the fly when omitted.
    """
    index = np.asarray(index)
    source = np.asarray(source)
    if source.ndim == 0 or source.shape[0] != index.size:
        # Broadcasting update (e.g. a scalar source): the segment sum
        # needs one source row per index entry, so defer to np.add.at.
        np.add.at(target, index, source)
        return
    if index.size < ADD_AT_THRESHOLD and plan is None:
        np.add.at(target, index, source)
        return
    if plan is None:
        plan = plan_scatter(index, target.shape[0])
    if plan.is_disjoint:
        target[index] += source
        return
    # The sums keep the source dtype: the fancy += below then applies
    # NumPy's usual casting rules, so an unsafe cast raises exactly as it
    # does in the disjoint-row branch.
    trailing = source.shape[1:]
    if source.size == index.size:
        sums = np.zeros(plan.targets.size, dtype=source.dtype)
        np.add.at(sums, plan.run_of, source.reshape(-1))
        sums = sums.reshape((-1,) + trailing)
    else:
        ordered = np.take(source, plan.order, axis=0)
        sums = np.empty((plan.targets.size,) + trailing, dtype=source.dtype)
        for length, first, last, run_a, run_b in plan.buckets:
            if length == 1:
                sums[run_a:run_b] = ordered[first:last]
            else:
                slab = ordered[first:last].reshape((run_b - run_a, length) + trailing)
                np.add.reduce(slab, axis=1, out=sums[run_a:run_b])
    target[plan.targets] += sums
