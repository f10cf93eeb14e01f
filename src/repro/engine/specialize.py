"""Plan-time specialization: lower an :class:`InsumPlan` once, emit it twice.

:class:`SpecializedKernel` executes every plan (:func:`materialize_plan`: the
unfused schedule's and ``backend="eager"``'s, one window over the whole extent).
:meth:`SpecializedKernel.build` compiles the plan once into a list of
prebuilt steps over a small register file; ``run`` loads the operands and
walks the list — no AST inspection, no axis arithmetic and no contraction
path search per call — and ``describe()`` prints it, so "what does this
plan execute" is a log line.  What ``build`` decides:

* **the emitter** — a plan :func:`repro.engine.emit.covers` (the SpMM family,
  SpMV, the block formats, sparse convolution, the tensor product) also gets
  the paper's fused C loop nest (:mod:`repro.engine.emit`) where this machine
  has a C compiler, decided once for the kernel's lifetime: ``describe()``
  says ``emitter: C`` with the source, or ``emitter: steps (<why>)``.  A call
  with other than float32 / float64 values and int64 indices runs the steps;
* **the windows** — the kernel streams over the leading output variable in
  windows whose temporaries (the gathered factors and the partial that
  carry the variable, ``per_step_bytes`` a step) fill :data:`_WINDOW_BYTES`,
  so a window is gathered, contracted and scattered while it is still in
  the L2 cache; a plan whose temporaries fit is one window, and a factor
  that does not carry the variable is gathered once per call.  A plan that
  scatters through a one-variable index (:func:`_split_runs`: every
  scattering SpMM, plain or stacked) windows over the *runs of equal
  targets* of that variable instead, bucketed by run length: duplicates are
  a reduction, so the positions inside a run join the dot's ``K`` group and
  no segment sum is left.  Those windows are cut once per pattern
  (:func:`repro.engine.segment.plan_runs`) and memoized, with bucket-ordered
  copies of the gather indices, under the index arrays' identities;
* **the gather** — per factor the source, gather axis, index tensor and
  the slice keys of every window; NumPy's bounds-checked ``np.take`` runs it;
* **the contraction** — the decomposition of the paper's kernel, pointwise
  folds plus one dot: a factor outside the dot pair
  (:func:`repro.core.inductor.dot_rewrite.detect_dot`) is multiplied, in
  place, into the side that carries its subscripts — always a temporary
  the kernel gathered, never a caller's array — then one ``np.matmul``
  runs over views whose transposes and reshapes are fixed here.  A plan
  without a reduction variable is the fold chain alone; a contraction this
  cannot express keeps ``np.einsum``, its path resolved here through
  :mod:`repro.engine.paths`;
* **the store** — on an all-zero base a scatter-free plan's ``np.matmul``
  writes straight into its window of the result, and a run-windowed plan
  assigns each window's run sums to their rows of a zeroed result (a target
  row is one run of one window: the write is disjoint); otherwise the
  partial is added in.  The plans that still scatter duplicates — a
  multi-variable index (sparse convolution, the grouped tensor product), one
  element per update (SpMV) — go through disjoint-row fancy ``+=`` or bucketed
  slab segment sums (:mod:`repro.engine.segment`), the bucket plans of all
  windows memoized per scatter-index identity
  (:mod:`repro.engine.fingerprint`): repeated calls over one format
  instance do zero index work.

Numerics.  The emitted loop nest's are :mod:`repro.engine.emit`'s: the same
bytes whatever the shapes, the vector width and wherever the operands lie, a
coalesced execution the per-request ones' bytes.  The step list matches it up
to reassociation and the tile's fused rounding: its dot sums in its BLAS's
order (a run-windowed plan's includes the duplicates of an output row; a stack
of ``s`` items runs ``s x K @ K x n`` where one request runs ``1 x K``, a few
ulp apart: ``tests/runtime/test_stacked.py``), and a ``segment_add`` store
keeps :mod:`repro.engine.segment`'s sequential contract within each window.
Integer-valued data is exact everywhere; the result's dtype is
``np.result_type`` of the operands and the bound output on both emitters.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from math import prod
from typing import Any, Callable, NamedTuple

import numpy as np

from repro.core.einsum.ast import IndexVar, IntLiteral
from repro.core.inductor.dot_rewrite import detect_dot
from repro.core.insum.planner import FactorPlan, InsumPlan
from repro.engine.emit import Emitted, covers, emit
from repro.engine.fingerprint import array_token, derived
from repro.engine.paths import cached_einsum_path
from repro.engine.segment import plan_runs, plan_scatter, segment_add
from repro.errors import IndexOutOfBoundsError, LoweringError

#: Bytes of temporaries one window may hold: the measured best of the sweep
#: committed in `docs/PERFORMANCE.md` (this host has 2 MiB of L2 a core, and
#: a window's temporaries are read back twice).
_WINDOW_BYTES = 512 * 1024


def _split_runs(plan: InsumPlan) -> InsumPlan | None:
    """``plan`` with its scatter variable ``p`` split into ``(p, p')``, or ``None``.

    Duplicate targets are a reduction.  When the plan scatters through an
    index whose only subscript is one variable ``p``, ``p`` reaches the output
    only there, no factor carries it twice and an update is a row of more than
    one element (the output variables after the scattered axis), ``p`` can
    range over the *runs* of equal targets and a new reduction variable ``p'``
    over the positions inside a run: the dot then sums the duplicates (``p'``
    joins its ``K`` group — :meth:`_Program.contraction` says whether it can)
    and the store is a disjoint write.  One-element updates (SpMV, and the
    stack of SpMVs a server coalesces) keep ``np.add.at``'s sequential order.
    """
    out, info, subscripts = plan.output_subscripts, plan.info, plan.scatter_index_subscripts
    if not subscripts or len(plan.statement.lhs.indices[plan.scatter_dim].indices) != 1:
        return None
    p, inner = subscripts[0], subscripts[0] + "'"
    if (
        out.count(p) != 1
        or any(factor.subscripts.count(p) > 1 for factor in plan.factors)
        or prod(info.extents[var] for var in out[out.index(p) + 1 :]) <= 1
    ):
        return None

    def split(names: list[str]) -> list[str]:
        return [v for name in names for v in ((p, inner) if name == p else (name,))]

    return replace(
        plan,
        info=replace(
            info, extents={**info.extents, inner: 1}, reduction_vars=[inner, *info.reduction_vars]
        ),
        factors=[replace(factor, subscripts=split(factor.subscripts)) for factor in plan.factors],
    )


class _Step(NamedTuple):
    """One prebuilt operation: ``run(registers, window_number)``."""

    text: str
    run: Callable[[list, int], None]


@dataclass(frozen=True)
class _Value:
    """A register holding one factor (or product of factors) at build time."""

    slot: int
    #: Loop variable of each axis.
    vars: tuple[str, ...]
    #: A temporary the kernel allocated itself — the only kind written to.
    owned: bool
    #: Recomputed for every window (it carries the leading variable).
    windowed: bool


class _Program:
    """The registers and steps of one compiled plan; its methods append steps."""

    def __init__(self, plan: InsumPlan, windows: list[slice], run_budget: tuple | None = None):
        self.plan, self.windows = plan, windows
        #: The variable the windows cut: the leading output variable (``None``
        #: for a scalar output) — or, given the ``run_budget`` of
        #: :meth:`run_windows`, the scatter variable of a plan :func:`_split_runs`
        #: split, cut into whole runs of equal targets (``inner``: the variable
        #: it added, over the positions inside a run).
        out = plan.scatter_index_subscripts if run_budget else plan.output_subscripts
        self.lead = out[0] if out else None
        self.inner = plan.info.reduction_vars[0] if run_budget else None
        self.extents = plan.info.extents
        names = [plan.info.output_name, *(f.access.tensor for f in plan.factors)]
        names += [f.gather_index for f in plan.factors if f.is_indirect]
        if plan.has_scatter:
            names.append(plan.scatter_index)
        #: Tensors loaded into the first registers on every call, the output
        #: first; the result and the factors' common dtype follow them.
        self.inputs = list(dict.fromkeys(names))
        self.factor_slots = [self.inputs.index(f.access.tensor) for f in plan.factors]
        self.names = [*self.inputs, "out", "dtype"]
        self.result, self.dtype = len(self.inputs), len(self.inputs) + 1
        self.per_call: list[_Step] = []
        self.per_window: list[_Step] = []
        #: The per-window steps when the dot may write straight into the result.
        self.per_window_direct: list[_Step] | None = None
        #: Registers a window's steps fill; ``run`` empties them after it.
        self.scratch: list[int] = []
        #: Run-windowed plans: the register of the memoized
        #: :class:`~repro.engine.segment.RunWindows`.
        self.schedule: int | None = None
        if run_budget:
            self.run_windows(*run_budget)

    # -- registers and steps ------------------------------------------------
    def new(self, windowed: bool, name: str | None = None) -> int:
        self.names.append(name or f"t{len(self.names)}")
        if windowed:
            self.scratch.append(len(self.names) - 1)
        return len(self.names) - 1

    def emit(self, windowed: bool, text: str, run: Callable[[list, int], None]) -> None:
        (self.per_window if windowed else self.per_call).append(_Step(text, run))

    def shape(self, groups: list[list[str]]) -> tuple[int | None, ...]:
        """One axis per group of variables; the windowed variable's is ``-1``.

        In a run-windowed plan that axis is ``None`` — the window's run count,
        which :meth:`reshaper` fills in — and the positions inside a run get
        the ``-1``.
        """
        lead = -1 if self.schedule is None else None
        return tuple(
            lead if self.lead in group
            else -1 if self.inner in group
            else prod(self.extents[v] for v in group)
            for group in groups
        )

    def reshaper(self, shape: tuple) -> tuple[Callable[[list, np.ndarray], np.ndarray], str]:
        """``(registers, array) -> array.reshape(shape)`` and how ``describe`` prints it."""
        if None not in shape:
            return (lambda regs, array: array.reshape(shape)), f".reshape{shape}"
        at, runs = shape.index(None), self.runs
        head, tail = shape[:at], shape[at + 1 :]
        text = f".reshape{shape}".replace("None", "runs")
        return (lambda regs, array: array.reshape(head + (regs[runs],) + tail)), text

    def keys(self, axes: list[int]) -> list[tuple]:
        """Per window, the index key that cuts ``axes`` to it."""
        return [
            tuple(window if axis in axes else slice(None) for axis in range(max(axes) + 1))
            for window in self.windows
        ]

    def lead_axes(self, indices) -> list[int]:
        """Positions in an access's ``indices`` of the plain leading variable."""
        return [
            axis
            for axis, ix in enumerate(indices)
            if isinstance(ix, IndexVar) and ix.name == self.lead
        ]

    def run_windows(self, update_bytes: int, run_bytes: int, forced: int | None) -> None:
        """Steps that fetch the memoized run windows and load the current one.

        A window holds ``forced`` runs of one length, else as many as fill
        :data:`_WINDOW_BYTES`: ``update_bytes`` of gathered factors an update,
        ``run_bytes`` of partial a run, every other output variable whole.
        """
        index, names = self.inputs.index(self.plan.scatter_index), self.names
        result, dim = self.result, self.plan.scatter_dim
        self.schedule = schedule = self.new(False)
        #: ``(index register, axis) -> register of its bucket-ordered copy``.
        self.ordered: dict[tuple[int, int], int] = {}
        ordered = self.ordered
        record = [self.new(True, name) for name in ("span", "cut", "rows", "runs")]
        self.span, self.cut, self.rows, self.runs = span, cut, rows, runs = record

        def runs_per_window(length: int) -> int:
            return forced or _WINDOW_BYTES // (length * update_bytes + run_bytes)

        def prepare(regs: list, w: int) -> None:
            # One artefact per pattern; its tag names the budget, the target's
            # extent and the index arrays whose bucket-ordered copies it holds.
            full, arrays = regs[index], [(regs[slot], axis) for slot, axis in ordered]
            extent = regs[result].shape[dim]
            tag = ("run-windows", update_bytes, run_bytes, forced, extent)
            tag += tuple((array_token(array), axis) for array, axis in arrays)
            regs[schedule] = windows = derived(
                full, tag, lambda: plan_runs(full.reshape(-1), extent, runs_per_window, arrays)
            )
            for copy, array in zip(ordered.values(), windows.ordered):
                regs[copy] = array

        def load(regs: list, w: int) -> None:
            regs[span], regs[cut], regs[rows], regs[runs] = regs[schedule].windows[w]

        text = f"{names[schedule]} = memoized windows over the runs of equal {names[index]}"
        self.emit(False, text + " (and the indices gathered through, in run order)", prepare)
        self.emit(True, f"span, cut, rows, runs = {names[schedule]}.windows[window]", load)

    def window_slice(self, src: int, axes: list[int], index: bool = False) -> int:
        """``src`` cut to the current window along ``axes``.

        A run window cuts one axis and splits it ``(runs, -1)``.  An index
        array is sliced from its bucket-ordered copy; an operand is gathered
        in bucket order — or sliced, never written, when the window's updates
        are consecutive in storage.
        """
        dst, names = self.new(True), self.names
        if self.schedule is None:
            keys = self.keys(axes)

            def cut(regs: list, w: int) -> None:
                regs[dst] = regs[src][keys[w]]

            self.emit(True, f"{names[dst]} = {names[src]}[window on axes {axes}]", cut)
            return dst
        (axis,), chosen, runs = axes, self.span if index else self.cut, self.runs
        if index:
            if (src, axis) not in self.ordered:
                self.ordered[src, axis] = self.new(False, f"{names[src]} in run order")
            src = self.ordered[src, axis]
        key = (slice(None),) * axis

        def cut_runs(regs: list, w: int) -> None:
            picked = regs[chosen]
            if picked.__class__ is slice:
                part = regs[src][key + (picked,)]
            else:
                part = np.take(regs[src], picked, axis=axis)
            shape = part.shape
            regs[dst] = part.reshape(shape[:axis] + (regs[runs], -1) + shape[axis + 1 :])

        text = f"{names[src]}[span, axis {axis}]" if index else f"take({names[src]}, cut, {axis=})"
        self.emit(True, f"{names[dst]} = {text}, axis {axis} as (runs, -1)", cut_runs)
        return dst

    def view(self, value: _Value, groups: list[list[str]]) -> int:
        """``value`` transposed to the order of ``groups``, each group merged."""
        perm = tuple(value.vars.index(v) for group in groups for v in group)
        in_order = perm == tuple(range(len(perm)))
        if in_order and all(len(group) == 1 for group in groups):
            return value.slot
        src, dst = value.slot, self.new(value.windowed)
        reshape, reshaped = self.reshaper(self.shape(groups))

        def arrange(regs: list, w: int) -> None:
            regs[dst] = reshape(regs, regs[src].transpose(perm))

        moved = "" if in_order else f".transpose{perm}"
        text = f"{self.names[dst]} = {self.names[src]}{moved}{reshaped}"
        self.emit(value.windowed, text, arrange)
        return dst

    # -- gather ---------------------------------------------------------------
    def factor(self, factor: FactorPlan) -> _Value:
        """Bring one factor into dense form, cut to the window where it carries it."""
        access, lead = factor.access, self.lead
        src = self.inputs.index(access.tensor)
        subscripts = tuple(factor.subscripts)
        if not factor.is_indirect:
            if any(isinstance(ix, IntLiteral) for ix in access.indices):
                key = tuple(
                    ix.value if isinstance(ix, IntLiteral) else slice(None)
                    for ix in access.indices
                )
                selected, whole = self.new(False), src

                def select(regs: list, w: int) -> None:
                    regs[selected] = regs[whole][key]

                self.emit(False, f"{self.names[selected]} = {access}", select)
                src = selected
            axes = [axis for axis, var in enumerate(subscripts) if var == lead]
            if axes:
                src = self.window_slice(src, axes)
            return _Value(src, subscripts, owned=False, windowed=bool(axes))

        axis = factor.gather_axis
        index = self.inputs.index(factor.gather_index)
        index_axes = self.lead_axes(access.indices[axis].indices)
        source_axes = self.lead_axes(access.indices)
        if index_axes:
            index = self.window_slice(index, index_axes, index=True)
        if source_axes:
            src = self.window_slice(src, source_axes)
            if self.schedule is not None and source_axes[0] < axis:
                axis += 1  # the cut split that axis into (runs, positions inside a run)
        windowed = bool(index_axes or source_axes)
        dst = self.new(windowed)

        def take(regs: list, w: int) -> None:
            regs[dst] = np.take(regs[src], regs[index], axis=axis)

        text = f"{self.names[dst]} = take({self.names[src]}, {self.names[index]}, axis={axis})"
        self.emit(windowed, f"{text}  # {access} -> [{','.join(subscripts)}]", take)
        return _Value(dst, subscripts, owned=True, windowed=windowed)

    # -- contraction ----------------------------------------------------------
    def fold(self, target: _Value, other: _Value) -> _Value:
        """``target * other``, ``other`` broadcast over the axes it lacks.

        In place when ``target`` is a temporary of this phase that already
        has the product's dtype; a fresh array otherwise, so a caller's
        operand and a once-per-call gather are never written to.
        """
        perm = tuple(sorted(range(len(other.vars)), key=lambda a: target.vars.index(other.vars[a])))
        key = tuple(slice(None) if var in other.vars else None for var in target.vars)
        windowed = target.windowed or other.windowed
        in_place = target.owned and target.windowed == windowed
        a, b, dtype = target.slot, other.slot, self.dtype
        dst = a if in_place else self.new(windowed)

        def multiply(regs: list, w: int) -> None:
            left = regs[a]
            out = left if in_place and left.dtype == regs[dtype] else None
            regs[dst] = np.multiply(left, regs[b].transpose(perm)[key], out=out)

        text = f"{self.names[dst]} = {self.names[a]} * {self.names[b]}"
        self.emit(windowed, text + (" (in place)" if in_place else ""), multiply)
        return _Value(dst, target.vars, owned=True, windowed=windowed)

    def contraction(self, values: list[_Value]) -> _Value | None:
        """Lower the contraction to folds plus at most one dot.

        Returns the partial, or ``None`` (with no step emitted) when this
        lowering cannot express the plan.
        """
        plan, out = self.plan, list(self.plan.output_subscripts)
        reduction = plan.info.reduction_vars
        if len(set(out)) != len(out) or any(len(set(v.vars)) != len(v.vars) for v in values):
            return None
        if not reduction:
            carriers = [v for v in values if set(v.vars) == set(out)]
            if not carriers:
                return None
            product = carrier = max(carriers, key=lambda v: v.owned)
            for other in values:
                if other is not carrier:
                    product = self.fold(product, other)
            return product

        dot = detect_dot(plan, matvec=True)
        if dot is None:
            return None
        pair = (dot.lhs_factor, dot.rhs_factor)
        sides = [values[position] for position in pair]
        others = [other for position, other in enumerate(values) if position not in pair]
        left, right = (set(side.vars) for side in sides)
        shared = left & right
        batch = [v for v in out if v in shared]
        k = [v for v in reduction if v in shared]
        m = [v for v in out if v in left and v not in shared]
        n = [v for v in out if v in right and v not in shared]
        # Decide before emitting anything: a fold keeps its side's variables
        # but may write in place, and the einsum fallback must find every
        # register as the gather left it.
        if (
            len(k) != len(reduction)
            or left != {*batch, *m, *k}
            or right != {*batch, *k, *n}
            or set(out) != {*batch, *m, *n}
            or not all(set(other.vars) <= left or set(other.vars) <= right for other in others)
        ):
            return None
        for other in others:
            fits = [s for s in (0, 1) if set(other.vars) <= set(sides[s].vars)]
            side = min(fits, key=lambda s: prod(self.extents[v] for v in sides[s].vars))
            sides[side] = self.fold(sides[side], other)
        lhs, rhs = sides
        if batch + m + n != out and batch + n + m == out:
            lhs, rhs, m, n = rhs, lhs, n, m
        each = [[v] for v in batch]
        return self.dot(self.view(lhs, [*each, m, k]), self.view(rhs, [*each, k, n]), [*each, m, n])

    def dot(self, lhs: int, rhs: int, groups: list[list[str]]) -> _Value:
        """One batched ``np.matmul``; ``groups`` are the axes it produces."""
        out, names = list(self.plan.output_subscripts), self.names
        natural = [v for group in groups for v in group]
        text = f"matmul({names[lhs]}, {names[rhs]})"
        if not self.plan.has_scatter and natural == out:
            windows, merged, result = self.windows, self.shape(groups), self.result

            def direct(regs: list, w: int) -> None:
                # The result is this kernel's own C-contiguous array and the
                # window cuts its first axis, so the reshape is a view of it.
                np.matmul(regs[lhs], regs[rhs], out=regs[result][windows[w]].reshape(merged))

            step = _Step(f"out[window].reshape{merged} = {text}", direct)
            self.per_window_direct = [*self.per_window, step]
        # Split the merged M and N axes.
        partial = self.new(True)
        reshape, reshaped = self.reshaper(self.shape([[v] for v in natural]))

        def dot(regs: list, w: int) -> None:
            regs[partial] = reshape(regs, np.matmul(regs[lhs], regs[rhs]))

        self.emit(True, f"{names[partial]} = {text}{reshaped}", dot)
        return _Value(partial, tuple(natural), owned=True, windowed=True)

    def einsum(self, values: list[_Value]) -> _Value:
        """The fallback: ``np.einsum`` with its path resolved now."""
        equation, slots, dst = self.plan.einsum_equation, [v.slot for v in values], self.new(True)
        shapes = [
            tuple(self.windows[0].stop if v == self.lead else self.extents[v] for v in value.vars)
            for value in values
        ]
        path = cached_einsum_path(equation, *(np.broadcast_to(np.float64(0), s) for s in shapes))

        def contract(regs: list, w: int) -> None:
            regs[dst] = np.einsum(equation, *[regs[slot] for slot in slots], optimize=path)

        operands = ", ".join(self.names[slot] for slot in slots)
        self.emit(True, f"{self.names[dst]} = einsum('{equation}', {operands})", contract)
        return _Value(dst, tuple(self.plan.output_subscripts), owned=True, windowed=True)

    def compile(self) -> bool:
        """Emit every step; ``False`` when the dot cannot sum a run-windowed
        plan's runs (the caller then compiles the plain program)."""
        values = [self.factor(factor) for factor in self.plan.factors]
        partial = self.contraction(values)
        if self.schedule is not None:
            if partial is not None:
                self.store_runs(partial)
            return partial is not None
        # The partial in output order, then into its place in the result.
        out = [[v] for v in self.plan.output_subscripts]
        ordered = self.view(partial or self.einsum(values), out)
        (self.scatter if self.plan.has_scatter else self.add)(ordered)
        return True

    # -- store ----------------------------------------------------------------
    def add(self, partial: int) -> None:
        """Add the partial into its window of a directly indexed result."""
        windows, result = self.windows, self.result

        def add(regs: list, w: int) -> None:
            regs[result][windows[w]] += regs[partial]

        self.emit(True, f"out[window] += {self.names[partial]}", add)

    def store_runs(self, partial: _Value) -> None:
        """Store each run's sum in its target row: a target row is one run of
        one window, so the write is disjoint — an assignment on a zero base."""
        plan, dim, rows, result = self.plan, self.plan.scatter_dim, self.rows, self.result
        rest = [[v] for v in plan.output_subscripts if v != self.lead]
        source = self.view(partial, [[self.lead], *rest])
        perm = (dim, *(a for a in range(len(plan.statement.lhs.indices)) if a != dim))
        target = "out[rows]" if dim == 0 else f"out.transpose{perm}[rows]"

        def write(regs: list, w: int) -> None:
            regs[result].transpose(perm)[regs[rows]] = regs[source]

        def add(regs: list, w: int) -> None:
            regs[result].transpose(perm)[regs[rows]] += regs[source]

        step = _Step(f"{target} = {self.names[source]}", write)
        self.per_window_direct = [*self.per_window, step]
        self.emit(True, f"{target} += {self.names[source]}", add)

    def scatter(self, partial: int) -> None:
        """Segment-sum the partial into the result through the scatter index."""
        plan, lead, out = self.plan, self.lead, list(self.plan.output_subscripts)
        scatter_vars, dim = list(plan.scatter_index_subscripts), plan.scatter_dim
        index, names = self.inputs.index(plan.scatter_index), self.names
        result, plans = self.result, self.new(False)
        # The scattered axis first on both sides, its variables merged.
        rest = [[v] for v in out if v not in scatter_vars]
        value = _Value(partial, tuple(out), owned=True, windowed=True)
        source = self.view(value, [scatter_vars, *rest])
        perm = (dim, *(a for a in range(len(plan.statement.lhs.indices)) if a != dim))
        target = "out" if dim == 0 else f"out.transpose{perm}"

        if lead in scatter_vars:
            # Every window scatters through its own cut of the index.
            position = scatter_vars.index(lead)
            keys = cuts = self.keys([position])
            schedule = (position, self.windows[0].stop)

            def scatter(regs: list, w: int) -> None:
                cut = regs[index][keys[w]].reshape(-1)
                segment_add(regs[result].transpose(perm), cut, regs[source], plan=regs[plans][w])

            text = f"segment_add({target}, {names[index]}[window], {names[source]}, "
            text += f"{names[plans]}[window])"
        else:
            # The leading variable is a plain output axis: every window
            # scatters through the whole index into its own cut of the target.
            plain = self.lead_axes(plan.statement.lhs.indices)
            if not plain:
                raise LoweringError(
                    f"chunk variable {lead!r} does not appear on the left-hand side"
                )
            keys, cuts, schedule = self.keys([perm.index(plain[0])]), [()], ("full",)

            def scatter(regs: list, w: int) -> None:
                cut = regs[result].transpose(perm)[keys[w]]
                segment_add(cut, regs[index].reshape(-1), regs[source], plan=regs[plans][0])

            text = f"segment_add({target}[window], {names[index]}, {names[source]}, {names[plans]})"

        def prepare(regs: list, w: int) -> None:
            # The bucket plans of every cut are one memoized artefact, tagged with
            # the schedule and the target's extent: two kernels may scatter through
            # one live index array on different schedules, into different targets.
            full, extent = regs[index], regs[result].shape[dim]
            regs[plans] = derived(
                full,
                ("scatter-plans", *schedule, extent),
                lambda: [plan_scatter(full[cut].reshape(-1), extent) for cut in cuts],
            )

        self.emit(False, f"{names[plans]} = memoized scatter plans of {names[index]}", prepare)
        self.emit(True, text, scatter)


@dataclass
class SpecializedKernel:
    """A plan compiled to a flat list of prebuilt NumPy steps — and, where the
    plan and the machine allow, to one fused C loop nest that runs instead.

    Built once per compiled plan (and cached with it in the plan cache);
    ``run`` then executes gather → fold → dot → scatter window by window
    with every value-independent decision already made.  A scalar output has
    no variable to window over: its one window is ``...``, which cuts the 0-d
    result to a writable 0-d view of it.
    """

    plan: InsumPlan
    _program: _Program = field(repr=False)
    #: Steps of the leading output variable one window takes (run-windowed:
    #: the runs per window a test forced, else ``None``).
    window_steps: int | None = 1
    #: Bytes of temporaries one step of the windowed variable accounts for.
    per_step_bytes: int = 0
    #: Ordered execution windows over the leading output variable (``[...]``
    #: for a scalar output); empty when run-windowed — those windows are cut
    #: per pattern at run time.
    windows: list = field(default_factory=list)
    #: Run-windowed (:func:`_split_runs`): the scatter variable, and the share
    #: of ``per_step_bytes`` — its row of the partial — paid once per run.
    run_variable: str | None = None
    per_run_bytes: int = 0
    #: The plan's fused C loop nest (:mod:`repro.engine.emit`) when the plan has
    #: one (``emit.covers``) and this machine compiled it; else why the
    #: steps run; ``None`` for a plan outside that rule.  Fixed here, at build.
    emitted: Emitted | str | None = field(default=None, repr=False)

    # -- construction -------------------------------------------------------
    @classmethod
    def build(cls, plan: InsumPlan, window_steps: int | None = None) -> "SpecializedKernel":
        """Compile a plan: fix the window schedule, every step of a window and
        which emitter runs.

        Parameters
        ----------
        plan:
            The validated lowering plan to specialize.
        window_steps:
            Steps of the leading output variable per window.  ``None``
            (what :func:`specialize_plan` passes) sizes a window so its
            temporaries fill :data:`_WINDOW_BYTES`; tests pass a count to
            force a schedule — and a forced schedule is the step list's.
        """
        kernel = cls._steps(plan, window_steps)
        if covers(plan):
            forced = window_steps is not None
            kernel.emitted = "window_steps forced" if forced else emit(plan, kernel._program.inputs)
        return kernel

    @classmethod
    def _steps(cls, plan: InsumPlan, window_steps: int | None) -> "SpecializedKernel":
        """The step list of ``plan`` (see :meth:`build`)."""
        extents, out = plan.info.extents, plan.output_subscripts

        def elements(subscripts) -> int:
            return prod(extents[var] for var in subscripts)

        def step_bytes(lead: str) -> tuple[int, int]:
            """What one step of ``lead`` costs: its row of the partial, and
            its share of every factor that carries the variable."""
            at = out.index(lead)
            shares = sum(
                elements(v for v in factor.subscripts if v != lead)
                for factor in plan.factors
                if lead in factor.subscripts
            )
            row = elements(out[:at] + out[at + 1 :])
            return row * plan.value_itemsize, shares * plan.value_itemsize

        split = _split_runs(plan) if elements(plan.info.loop_vars) else None
        if split is not None:
            lead = plan.scatter_index_subscripts[0]
            row, shares = step_bytes(lead)
            program = _Program(split, [], (shares, row, window_steps))
            if program.compile():
                return cls(
                    plan=plan,
                    window_steps=window_steps,
                    per_step_bytes=row + shares,
                    run_variable=lead,
                    per_run_bytes=row,
                    _program=program,
                )

        per_step_bytes = sum(step_bytes(out[0])) if out else 0
        if window_steps is None:
            window_steps = max(1, _WINDOW_BYTES // max(1, per_step_bytes))
        # An empty iteration space (an all-zero sparse operand, a zero-width
        # dense one) has no windows: ``run`` returns the (accumulated) base.
        extent = extents[out[0]] if out else 1
        starts = range(0, extent, window_steps) if elements(plan.info.loop_vars) else ()
        windows = [slice(start, min(extent, start + window_steps)) for start in starts]
        if not out:
            windows = [...] * len(windows)  # a scalar output: ``...``, or none

        program = _Program(plan, windows)
        if windows:
            program.compile()
        return cls(
            plan=plan,
            window_steps=window_steps,
            per_step_bytes=per_step_bytes,
            windows=windows,
            _program=program,
        )

    # -- execution ----------------------------------------------------------
    def run(self, tensors: dict[str, np.ndarray]) -> np.ndarray:
        """Execute the kernel on the given tensors: an index outside ``[-extent,
        extent)`` raises :class:`IndexOutOfBoundsError` on either emitter."""
        program = self._program
        regs: list[Any] = [np.asarray(tensors[name]) for name in program.inputs]
        base = regs[0]
        factor_dtype = np.result_type(*[regs[slot] for slot in program.factor_slots])
        dtype = np.result_type(base, factor_dtype)
        # A base of all zeros (a "=" statement, or the zero-stride
        # placeholder of a call that binds no output) need not be copied.
        zero_base = not self.plan.statement.accumulate or (
            base.size > 0 and not any(base.strides) and not base[(0,) * base.ndim]
        )
        emitted, given = self.emitted, [None] * (len(regs) - 1)
        call = emitted.pin([base, *given], factor_dtype) if emitted.__class__ is Emitted else None
        if call is not None:
            # A base the sum would promote (float64 under float32 operands)
            # receives the operand-dtype partial in one add, as on the step list.
            promote = dtype != factor_dtype
            if zero_base or promote:
                result = np.zeros(base.shape, dtype=factor_dtype)
            else:
                result = np.array(base, dtype=dtype, order="C")
            if call(regs[1:], result) is not None:
                if promote:
                    result = result.astype(dtype) if zero_base else base + result
                return result
        steps = program.per_window
        if zero_base and program.per_window_direct and dtype == factor_dtype:
            # A direct dot fills every window of the result; a run-windowed
            # store assigns only the rows that receive a run.
            steps = program.per_window_direct
            fresh = np.empty if program.schedule is None else np.zeros
            result = fresh(base.shape, dtype=dtype)
        elif zero_base:
            result = np.zeros(base.shape, dtype=dtype)
        else:
            result = base.astype(dtype, copy=True)

        regs += [result, factor_dtype, *[None] * (len(program.names) - len(regs) - 2)]
        try:
            for step in program.per_call:
                step.run(regs, 0)
            windows = self.windows if program.schedule is None else regs[program.schedule].windows
            for window in range(len(windows)):
                for step in steps:
                    step.run(regs, window)
                # Free this window's temporaries before the next one allocates:
                # the allocator then hands the same, cache-warm blocks back.
                for slot in program.scratch:
                    regs[slot] = None
        except IndexError as error:  # NumPy's, from a gather (np.take) or a store
            raise IndexOutOfBoundsError(str(error)) from error
        return result

    # -- reporting ----------------------------------------------------------
    def describe(self) -> str:
        """The window schedule and the step list, one step per line."""
        program = self._program
        if program.lead is None:
            header = f"{len(self.windows)} window(s) over the 0-d result"
        elif self.run_variable is None:
            header = f"{len(self.windows)} window(s) of {self.window_steps} steps over "
            header += f"{program.lead!r} ({self.per_step_bytes} B per step)"
        else:
            size = f"{self.window_steps} run(s)" if self.window_steps else f"{_WINDOW_BYTES} B"
            header = f"windows of {size} over the runs of equal {self.plan.scatter_index}"
            header += f"[{self.run_variable}] ({self.per_step_bytes - self.per_run_bytes} B per "
            header += f"update + {self.per_run_bytes} B per run)"
        lines = [f"specialized: {header}"]
        if self.emitted.__class__ is Emitted:
            head = "  emitter: C (float32/float64 values, int64 indices; else the steps)"
            reused = ", ".join(name for name, _, kind in self.emitted.layout if kind == "reused")
            lines.append(head + f"; on a cache line, else copied: {reused}" * bool(reused))
            lines.extend(f"    {line}" for line in self.emitted.source.splitlines())
        elif self.emitted is not None:
            lines.append(f"  emitter: steps ({self.emitted})")
        sections = [("per call", program.per_call), ("per window", program.per_window)]
        if program.per_window_direct:
            sections.append(("per window, all-zero base", program.per_window_direct))
        for title, steps in sections:
            if steps:
                lines.append(f"  {title}:")
                lines.extend(f"    {step.text}" for step in steps)
        return "\n".join(lines)


def specialize_plan(plan: InsumPlan, config: Any) -> SpecializedKernel:
    """Compile the kernel of a plan under a backend config.

    Cheap (structure-only — no operand values are touched; the C object of a
    covered plan comes from this process, else the disk cache, else from
    ``cc`` the first time a machine sees its structure), so it runs
    eagerly at compile time and is cached alongside the plan.  No field of
    ``config`` shapes the kernel: the window size is :data:`_WINDOW_BYTES`.
    """
    return SpecializedKernel.build(plan)


def materialize_plan(plan: InsumPlan) -> SpecializedKernel:
    """The step list of ``plan`` as one window over its whole extent: every
    temporary materialised in full, as the unfused schedule (a template matmul
    between gather and scatter kernels) and ``backend="eager"`` hold them.  A
    scattering SpMM keeps its windows over the runs of equal targets
    (:func:`_split_runs`), that many runs to a window."""
    out = plan.output_subscripts
    steps = max(1, plan.info.extents[out[0]]) if out else 1
    return SpecializedKernel.build(plan, window_steps=steps)
