"""Plan-time specialization: compile an :class:`InsumPlan` into flat steps.

:class:`SpecializedKernel` is the executor of every fused schedule.
:meth:`SpecializedKernel.build` compiles the plan once into a list of
prebuilt steps over a small register file; ``run`` loads the operands and
walks the list — no AST inspection, no axis arithmetic and no contraction
path search per call — and ``describe()`` prints it, so "what does this
plan execute" is a log line.  What ``build`` decides:

* **the windows** — the kernel streams over the leading output variable in
  windows whose temporaries (the gathered factors and the partial that
  carry the variable, ``per_step_bytes`` a step) fill :data:`_WINDOW_BYTES`,
  so a window is gathered, contracted and scattered while it is still in
  the L2 cache; a plan whose temporaries fit is one window, and a factor
  that does not carry the variable is gathered once per call;
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
  writes straight into its window of the result; otherwise the partial is
  added in, through disjoint-row fancy ``+=`` or bucketed slab segment sums
  (:mod:`repro.engine.segment`) when the output is indirect, the bucket
  plans of all windows memoized per scatter-index identity
  (:mod:`repro.engine.fingerprint`): repeated calls over one format
  instance do zero index work.

Numerics match the unfused FX interpreter up to floating-point
reassociation: per output row, contributions are summed sequentially in
storage order and the sum is then added to the row (the contract of
:mod:`repro.engine.segment`), within each window; the dot sums in its BLAS's
order.  Every kernel is tested against the loop-nest reference interpreter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod
from typing import Any, Callable, NamedTuple

import numpy as np

from repro.core.einsum.ast import IndexVar, IntLiteral
from repro.core.inductor.dot_rewrite import detect_dot
from repro.core.inductor.executor import run_unfused
from repro.core.insum.planner import FactorPlan, InsumPlan
from repro.engine.fingerprint import derived
from repro.engine.paths import cached_einsum_path
from repro.engine.segment import plan_scatter, segment_add
from repro.errors import LoweringError

#: Bytes of temporaries one window may hold: the measured best of the sweep
#: committed in `docs/PERFORMANCE.md` (this host has 2 MiB of L2 a core, and
#: a window's temporaries are read back twice).
_WINDOW_BYTES = 512 * 1024


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

    def __init__(self, plan: InsumPlan, windows: list[slice]):
        self.plan, self.windows = plan, windows
        self.lead = plan.output_subscripts[0]
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

    # -- registers and steps ------------------------------------------------
    def new(self, windowed: bool) -> int:
        self.names.append(f"t{len(self.names)}")
        if windowed:
            self.scratch.append(len(self.names) - 1)
        return len(self.names) - 1

    def emit(self, windowed: bool, text: str, run: Callable[[list, int], None]) -> None:
        (self.per_window if windowed else self.per_call).append(_Step(text, run))

    def shape(self, groups: list[list[str]]) -> tuple[int, ...]:
        """One axis per group of variables; the leading variable's is ``-1``."""
        return tuple(
            -1 if self.lead in group else prod(self.extents[v] for v in group)
            for group in groups
        )

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

    def window_slice(self, src: int, axes: list[int]) -> int:
        """``src`` cut to the current window along ``axes``."""
        keys, dst = self.keys(axes), self.new(True)

        def cut(regs: list, w: int) -> None:
            regs[dst] = regs[src][keys[w]]

        self.emit(True, f"{self.names[dst]} = {self.names[src]}[window on axes {axes}]", cut)
        return dst

    def view(self, value: _Value, groups: list[list[str]]) -> int:
        """``value`` transposed to the order of ``groups``, each group merged."""
        perm = tuple(value.vars.index(v) for group in groups for v in group)
        in_order = perm == tuple(range(len(perm)))
        if in_order and all(len(group) == 1 for group in groups):
            return value.slot
        shape, src, dst = self.shape(groups), value.slot, self.new(value.windowed)

        def arrange(regs: list, w: int) -> None:
            regs[dst] = regs[src].transpose(perm).reshape(shape)

        moved = "" if in_order else f".transpose{perm}"
        text = f"{self.names[dst]} = {self.names[src]}{moved}.reshape{shape}"
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
            index = self.window_slice(index, index_axes)
        if source_axes:
            src = self.window_slice(src, source_axes)
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

    def contraction(self, values: list[_Value]) -> int | None:
        """Lower the contraction to folds plus at most one dot.

        Returns the register of the partial, in output order, or ``None``
        (with no step emitted) when this lowering cannot express the plan.
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
            return self.view(product, [[v] for v in out])

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

    def dot(self, lhs: int, rhs: int, groups: list[list[str]]) -> int:
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
        # Split the merged M and N axes, then reorder to the output's.
        partial, split = self.new(True), self.shape([[v] for v in natural])

        def dot(regs: list, w: int) -> None:
            regs[partial] = np.matmul(regs[lhs], regs[rhs]).reshape(split)

        self.emit(True, f"{names[partial]} = {text}.reshape{split}", dot)
        value = _Value(partial, tuple(natural), owned=True, windowed=True)
        return self.view(value, [[v] for v in out])

    def einsum(self, values: list[_Value]) -> int:
        """The fallback: ``np.einsum`` with its path resolved now."""
        equation, slots, dst = self.plan.einsum_equation, [v.slot for v in values], self.new(True)
        steps = self.windows[0].stop
        shapes = [
            tuple(steps if v == self.lead else self.extents[v] for v in value.vars)
            for value in values
        ]
        path = cached_einsum_path(equation, *(np.broadcast_to(np.float64(0), s) for s in shapes))

        def contract(regs: list, w: int) -> None:
            regs[dst] = np.einsum(equation, *[regs[slot] for slot in slots], optimize=path)

        operands = ", ".join(self.names[slot] for slot in slots)
        self.emit(True, f"{self.names[dst]} = einsum('{equation}', {operands})", contract)
        return dst

    # -- store ----------------------------------------------------------------
    def add(self, partial: int) -> None:
        """Add the partial into its window of a directly indexed result."""
        windows, result = self.windows, self.result

        def add(regs: list, w: int) -> None:
            regs[result][windows[w]] += regs[partial]

        self.emit(True, f"out[window] += {self.names[partial]}", add)

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
            # Every window scatters through its own cut of the index; the
            # bucket plans of all of them are one memoized artefact.  The
            # cut axis and the window size are part of its tag: two kernels
            # may scatter through one live index array on different schedules.
            position = scatter_vars.index(lead)
            keys = self.keys([position])
            tag = ("scatter-plans", position, self.windows[0].stop)

            def prepare(regs: list, w: int) -> None:
                full = regs[index]
                regs[plans] = derived(
                    full, tag, lambda: [plan_scatter(full[key].reshape(-1)) for key in keys]
                )

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
            keys = self.keys([perm.index(plain[0])])

            def prepare(regs: list, w: int) -> None:
                full = regs[index]
                regs[plans] = derived(
                    full, ("scatter-plan", "full"), lambda: plan_scatter(full.reshape(-1))
                )

            def scatter(regs: list, w: int) -> None:
                cut = regs[result].transpose(perm)[keys[w]]
                segment_add(cut, regs[index].reshape(-1), regs[source], plan=regs[plans])

            text = f"segment_add({target}[window], {names[index]}, {names[source]}, {names[plans]})"
        self.emit(False, f"{names[plans]} = memoized scatter plans of {names[index]}", prepare)
        self.emit(True, text, scatter)


@dataclass
class SpecializedKernel:
    """A plan compiled to a flat list of prebuilt NumPy steps.

    Built once per compiled plan (and cached with it in the plan cache);
    ``run`` then executes gather → fold → dot → scatter window by window
    with every value-independent decision already made.  Falls back to the
    unfused FX interpreter for plans without a leading output variable
    (scalar outputs): there is nothing to window over.
    """

    plan: InsumPlan
    #: Steps of the leading output variable one window takes.
    window_steps: int = 1
    #: Bytes of temporaries one step of the leading variable accounts for.
    per_step_bytes: int = 0
    #: Ordered execution windows over the leading output variable.
    windows: list[slice] = field(default_factory=list)
    #: ``None`` for a plan the unfused interpreter runs.
    _program: _Program | None = field(default=None, repr=False)

    # -- construction -------------------------------------------------------
    @classmethod
    def build(cls, plan: InsumPlan, window_steps: int | None = None) -> "SpecializedKernel":
        """Compile a plan: fix the window schedule and every step of a window.

        Parameters
        ----------
        plan:
            The validated lowering plan to specialize.
        window_steps:
            Steps of the leading output variable per window.  ``None``
            (what :func:`specialize_plan` passes) sizes a window so its
            temporaries fill :data:`_WINDOW_BYTES`; tests pass a count to
            force a schedule.
        """
        if not plan.output_subscripts:
            return cls(plan=plan)

        extents = plan.info.extents
        lead = plan.output_subscripts[0]
        extent = extents[lead]

        def elements(subscripts) -> int:
            return prod(extents[var] for var in subscripts)

        # What one step of the leading variable costs: its row of the
        # partial plus its share of every factor that carries the variable.
        per_step = elements(plan.output_subscripts[1:]) + sum(
            elements(v for v in factor.subscripts if v != lead)
            for factor in plan.factors
            if lead in factor.subscripts
        )
        per_step_bytes = per_step * plan.value_itemsize
        if window_steps is None:
            window_steps = max(1, _WINDOW_BYTES // max(1, per_step_bytes))
        # An empty iteration space (an all-zero sparse operand, a zero-width
        # dense one) has no windows: ``run`` returns the (accumulated) base.
        starts = range(0, extent, window_steps) if elements(plan.info.loop_vars) else ()
        windows = [slice(start, min(extent, start + window_steps)) for start in starts]

        program = _Program(plan, windows)
        if windows:
            values = [program.factor(factor) for factor in plan.factors]
            partial = program.contraction(values)
            if partial is None:
                partial = program.einsum(values)
            if plan.has_scatter:
                program.scatter(partial)
            else:
                program.add(partial)
        return cls(
            plan=plan,
            window_steps=window_steps,
            per_step_bytes=per_step_bytes,
            windows=windows,
            _program=program,
        )

    # -- execution ----------------------------------------------------------
    def run(self, tensors: dict[str, np.ndarray]) -> np.ndarray:
        """Execute the compiled steps on the given tensors."""
        program = self._program
        if program is None:
            return run_unfused(self.plan, tensors)

        regs: list[Any] = [np.asarray(tensors[name]) for name in program.inputs]
        base = regs[0]
        factor_dtype = np.result_type(*[regs[slot] for slot in program.factor_slots])
        dtype = np.result_type(base, factor_dtype)
        # A base of all zeros (a "=" statement, or the zero-stride
        # placeholder of a call that binds no output) need not be copied.
        zero_base = not self.plan.statement.accumulate or (
            base.size > 0 and not any(base.strides) and not base[(0,) * base.ndim]
        )
        steps = program.per_window
        if zero_base and self.windows and program.per_window_direct and dtype == factor_dtype:
            steps = program.per_window_direct
            result = np.empty(base.shape, dtype=dtype)
        elif zero_base:
            result = np.zeros(base.shape, dtype=dtype)
        else:
            result = base.astype(dtype, copy=True)

        regs += [result, factor_dtype, *[None] * (len(program.names) - len(regs) - 2)]
        if self.windows:
            for step in program.per_call:
                step.run(regs, 0)
        for window in range(len(self.windows)):
            for step in steps:
                step.run(regs, window)
            # Free this window's temporaries before the next one allocates:
            # the allocator then hands the same, cache-warm blocks back.
            for slot in program.scratch:
                regs[slot] = None
        return result

    # -- reporting ----------------------------------------------------------
    def describe(self) -> str:
        """The window schedule and the step list, one step per line."""
        program = self._program
        if program is None:
            return "specialized: unfused fallback (no leading output variable)"
        lines = [
            f"specialized: {len(self.windows)} window(s) of {self.window_steps} steps over "
            f"{program.lead!r} ({self.per_step_bytes} B per step)"
        ]
        sections = [("per call", program.per_call), ("per window", program.per_window)]
        if program.per_window_direct:
            sections.append(("per window, all-zero base", program.per_window_direct))
        for title, steps in sections:
            if steps:
                lines.append(f"  {title}:")
                lines.extend(f"    {step.text}" for step in steps)
        return "\n".join(lines)


def specialize_plan(plan: InsumPlan, config: Any) -> SpecializedKernel:
    """Compile the step list for a plan under a backend config.

    Cheap (structure-only — no operand values are touched), so it runs
    eagerly at compile time and is cached alongside the plan.  No field of
    ``config`` shapes the kernel: the window size is :data:`_WINDOW_BYTES`.
    """
    return SpecializedKernel.build(plan)
