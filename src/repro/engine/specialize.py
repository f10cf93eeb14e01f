"""Plan-time specialization: turn an :class:`InsumPlan` into a fast closure.

:class:`SpecializedKernel` is the executor of every fused schedule: it
streams over the leading output variable in windows, gathering,
contracting, and scattering each window without ever holding the full
gathered temporaries.  Everything that does not depend on operand values
is decided at *compile time*:

* the chunking decision is made once from the plan's extents and the
  config's memory budget: the whole iteration space as one window when its
  temporaries fit ``specialize_single_shot_elements``, otherwise streamed
  windows over the leading output variable, each sized from the per-step
  footprint so its temporaries fill a quarter of that budget
  (:data:`_MIN_WINDOW_STEPS` is the floor, whatever a step costs);
* the contraction path is resolved once per distinct chunk shape through
  :mod:`repro.engine.paths` and passed explicitly on every call;
* scatters are lowered to disjoint-row fancy ``+=`` or bucketed slab
  segment sums (:mod:`repro.engine.segment`), with the bucket permutation
  and boundaries memoized per ``(scatter-index identity, window)``
  (:mod:`repro.engine.fingerprint`) — repeated calls over the same format
  instance do zero index work;
* the contraction partial of each chunk is written into a per-thread
  arena buffer (:mod:`repro.engine.arena`) instead of a new allocation.

Numerics match the unfused FX interpreter up to floating-point
reassociation of the scatter: per output row, contributions are summed
sequentially in storage order and the sum is then added to the row (the
contract of :mod:`repro.engine.segment`), within each window.  Every
specialized kernel is tested against the loop-nest reference interpreter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.einsum.ast import IndexVar, IntLiteral, TensorAccess
from repro.core.inductor.executor import run_unfused
from repro.core.insum.planner import FactorPlan, InsumPlan
from repro.engine.arena import BufferArena
from repro.engine.fingerprint import derived
from repro.engine.paths import cached_einsum_path
from repro.engine.segment import plan_scatter, segment_add
from repro.errors import LoweringError

#: A streamed window's temporaries are sized to this share of the
#: single-shot budget (1M elements at the default 4M): of 256k / 1M / 4M,
#: 1M measured fastest on the fig-11 graphs, and 4M costs +24% peak RSS.
_WINDOW_BUDGET_SHARE = 4

#: Fewest steps of the leading output variable a streamed window takes.
_MIN_WINDOW_STEPS = 128


@dataclass
class SpecializedKernel:
    """A compiled, allocation-light NumPy closure for one Insum plan.

    Built once per compiled plan (and cached with it in the plan cache);
    ``run`` then executes the gather → einsum → scatter pipeline with all
    value-independent decisions precomputed.  Falls back to the unfused FX
    interpreter for plans without a leading output variable (scalar
    outputs): there is nothing to window over.
    """

    plan: InsumPlan
    chunk_size: int
    single_shot: bool
    supported: bool
    #: Ordered execution windows over the leading output variable.
    windows: list[slice] = field(default_factory=list)
    #: Letters of the einsum output spec, for partial-shape derivation.
    _output_letters: str = ""
    #: Per-factor input letters, aligned with ``plan.factors``.
    _factor_letters: list[str] = field(default_factory=list)
    _arena: BufferArena = field(default_factory=BufferArena, repr=False)
    _factor_names: list[str] = field(default_factory=list)

    # -- construction -------------------------------------------------------
    @classmethod
    def build(
        cls, plan: InsumPlan, chunk_size: int, single_shot_budget: int
    ) -> "SpecializedKernel":
        """Specialize a plan: fix the chunk schedule and einsum structure.

        Parameters
        ----------
        plan:
            The validated lowering plan to specialize.
        chunk_size:
            Fewest steps of the leading output variable a streamed window
            takes when the single-shot budget is exceeded.
        single_shot_budget:
            Maximum total temporary elements (gathered factors plus the
            contraction partial) for which the whole iteration space runs
            as one window.  A streamed window takes as many steps as fill a
            quarter of it.
        """
        supported = bool(plan.output_subscripts)
        if not supported:
            return cls(plan=plan, chunk_size=1, single_shot=False, supported=False)

        info = plan.info
        chunk_var = plan.output_subscripts[0]
        extent = info.extents[chunk_var]

        def elements(subscripts) -> int:
            count = 1
            for var in subscripts:
                count *= info.extents[var]
            return count

        # Temporaries of the whole iteration space, and the part of them
        # one step of the leading variable accounts for: the contraction
        # partial plus every factor that carries the variable.
        footprint = elements(plan.output_subscripts)
        per_step = elements(plan.output_subscripts[1:])
        for factor in plan.factors:
            footprint += elements(factor.subscripts)
            if chunk_var in factor.subscripts:
                per_step += elements(v for v in factor.subscripts if v != chunk_var)
        single_shot = footprint <= single_shot_budget

        if single_shot:
            size = extent
        else:
            target = single_shot_budget // _WINDOW_BUDGET_SHARE
            size = max(1, int(chunk_size), target // max(1, per_step))
        # An empty leading extent (an all-zero sparse operand) has no
        # windows: ``run`` returns the (accumulated) base output.
        windows = [
            slice(start, min(extent, start + size)) for start in range(0, extent, max(1, size))
        ]

        inputs_spec, output_spec = plan.einsum_equation.split("->")
        return cls(
            plan=plan,
            chunk_size=size,
            single_shot=single_shot,
            supported=True,
            windows=windows,
            _output_letters=output_spec,
            _factor_letters=inputs_spec.split(","),
            _factor_names=[f.access.tensor for f in plan.factors],
        )

    # -- execution ----------------------------------------------------------
    def run(self, tensors: dict[str, np.ndarray]) -> np.ndarray:
        """Execute the specialized pipeline on the given tensors."""
        plan = self.plan
        if not self.supported:
            return run_unfused(plan, tensors)

        arrays = {name: np.asarray(value) for name, value in tensors.items()}
        info = plan.info
        base = arrays[info.output_name]
        value_dtype = np.result_type(base, *[arrays[name] for name in self._factor_names])
        if plan.statement.accumulate:
            result = base.astype(value_dtype, copy=True)
        else:
            result = np.zeros(base.shape, dtype=value_dtype)

        chunk_var = plan.output_subscripts[0]
        for window in self.windows:
            chunk_factors = [
                _materialize_factor_chunk(factor, arrays, chunk_var, window)
                for factor in plan.factors
            ]
            partial = self._contract(chunk_factors)
            self._scatter(arrays, result, partial, chunk_var, window)
        return result

    def _contract(self, chunk_factors: list[np.ndarray]) -> np.ndarray:
        """One chunk's contraction, with a memoized path and arena output."""
        equation = self.plan.einsum_equation
        path = cached_einsum_path(equation, *chunk_factors)
        sizes: dict[str, int] = {}
        for letters, operand in zip(self._factor_letters, chunk_factors):
            for letter, dim in zip(letters, operand.shape):
                sizes[letter] = dim
        out_shape = tuple(sizes[letter] for letter in self._output_letters)
        out_dtype = np.result_type(*chunk_factors)
        buffer = self._arena.get(("partial", out_shape), out_shape, out_dtype)
        return np.einsum(equation, *chunk_factors, optimize=path, out=buffer)

    def _scatter(
        self,
        arrays: dict[str, np.ndarray],
        result: np.ndarray,
        partial: np.ndarray,
        chunk_var: str,
        window: slice,
    ) -> None:
        """Accumulate one chunk into the result (segment-sum lowering)."""
        plan = self.plan
        if not plan.has_scatter:
            result[window] += partial
            return

        scatter_dim = plan.scatter_dim
        assert scatter_dim is not None
        scatter_vars = plan.scatter_index_subscripts
        full_index = arrays[plan.scatter_index]
        index_array = full_index

        target_view = result
        if chunk_var in scatter_vars:
            index_array = _slice_axis(full_index, scatter_vars.index(chunk_var), window)
        else:
            plain_axis = None
            for axis, ix in enumerate(plan.statement.lhs.indices):
                if isinstance(ix, IndexVar) and ix.name == chunk_var:
                    plain_axis = axis
                    break
            if plain_axis is None:
                raise LoweringError(
                    f"chunk variable {chunk_var!r} does not appear on the left-hand side"
                )
            target_view = _slice_axis(result, plain_axis, window)

        num_scatter_axes = len(scatter_vars)
        moved_source = np.moveaxis(
            partial,
            list(range(scatter_dim, scatter_dim + num_scatter_axes)),
            list(range(num_scatter_axes)),
        )
        moved_target = np.moveaxis(target_view, scatter_dim, 0)

        flat_index = index_array.reshape(-1)
        if num_scatter_axes > 1 or index_array.ndim > 1:
            lead = int(np.prod(moved_source.shape[:num_scatter_axes]))
            moved_source = moved_source.reshape((lead,) + moved_source.shape[num_scatter_axes:])
        # When the chunk variable does not slice the scatter index, every
        # window scatters through the same full index — share one plan.
        # The sliced axis must be part of the tag: two plans can scatter
        # through the same live index array with the chunk variable at
        # different positions, and their plans must not alias.
        if chunk_var in scatter_vars:
            window_tag = (scatter_vars.index(chunk_var), window.start, window.stop)
        else:
            window_tag = "full"
        scatter_plan = derived(
            full_index,
            ("scatter-plan", window_tag),
            lambda: plan_scatter(flat_index),
        )
        segment_add(moved_target, flat_index, moved_source, plan=scatter_plan)

    # -- reporting ----------------------------------------------------------
    def describe(self) -> str:
        """One-line summary of the specialization decisions."""
        if not self.supported:
            return "specialized: unfused fallback (no leading output variable)"
        mode = "single-shot" if self.single_shot else f"{len(self.windows)} windows"
        scatter = "segment-sum scatter" if self.plan.has_scatter else "direct output"
        return (
            f"specialized: {mode} (chunk {self.chunk_size}), cached path "
            f"'{self.plan.einsum_equation}', {scatter}"
        )


# ---------------------------------------------------------------------------
# Windowed factor materialisation (the gather stage)
# ---------------------------------------------------------------------------
def _materialize_factor_chunk(
    factor: FactorPlan,
    arrays: dict[str, np.ndarray],
    chunk_var: str,
    window: slice,
) -> np.ndarray:
    """Produce the dense temporary of one factor, restricted to the chunk."""
    access = factor.access
    source = arrays[access.tensor]

    if not factor.is_indirect:
        return _slice_direct_access(source, access, chunk_var, window)

    axis = factor.gather_axis
    assert axis is not None
    index_access = access.indices[axis]
    assert isinstance(index_access, TensorAccess)
    index_array = arrays[index_access.tensor]
    index_vars = [ix.name for ix in index_access.indices if isinstance(ix, IndexVar)]

    if chunk_var in index_vars:
        position = index_vars.index(chunk_var)
        index_array = _slice_axis(index_array, position, window)

    # Slice the source tensor along any *direct* axis carrying the chunk var.
    sliced_source = source
    for source_axis, ix in enumerate(access.indices):
        if isinstance(ix, IndexVar) and ix.name == chunk_var:
            sliced_source = _slice_axis(sliced_source, source_axis, window)

    flat_index = index_array.reshape(-1)
    gathered = np.take(sliced_source, flat_index, axis=axis)
    target_shape = (
        sliced_source.shape[:axis] + index_array.shape + sliced_source.shape[axis + 1 :]
    )
    return gathered.reshape(target_shape)


def _slice_direct_access(
    source: np.ndarray, access: TensorAccess, chunk_var: str, window: slice
) -> np.ndarray:
    """Apply constant-index selection and chunk slicing to a direct factor."""
    result = source
    removed = 0
    for axis, ix in enumerate(access.indices):
        effective_axis = axis - removed
        if isinstance(ix, IntLiteral):
            result = np.take(result, ix.value, axis=effective_axis)
            removed += 1
        elif isinstance(ix, IndexVar) and ix.name == chunk_var:
            result = _slice_axis(result, effective_axis, window)
    return result


def _slice_axis(array: np.ndarray, axis: int, window: slice) -> np.ndarray:
    key = [slice(None)] * array.ndim
    key[axis] = window
    return array[tuple(key)]


def specialize_plan(plan: InsumPlan, config: Any) -> SpecializedKernel:
    """Build the specialized closure for a plan under a backend config.

    Reads ``specialize_single_shot_elements`` from the config; cheap
    (structure-only — no operand values are touched), so it runs eagerly
    at compile time and is cached alongside the plan.
    """
    budget = int(getattr(config, "specialize_single_shot_elements", 1 << 22))
    return SpecializedKernel.build(plan, chunk_size=_MIN_WINDOW_STEPS, single_shot_budget=budget)
