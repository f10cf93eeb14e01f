"""Compilation driver: plan → stages → fused schedule → executable; GPU model on demand.

:func:`compile_plan` is the backend entry point used by
:class:`repro.core.insum.api.Insum`.  It does only the work whose result
executes: it detects the dot pattern, lowers and fuses the stages and
compiles the plan's :class:`~repro.engine.specialize.SpecializedKernel` —
cache-sized windows for a fused schedule, one whole-extent window for an
unfused one (fusion decides which).  The analytical GPU model — the tile
search, the kernel specs and the cost report — runs on the first access
to :attr:`CompiledInsum.autotune`, :attr:`~CompiledInsum.kernels` or
:attr:`~CompiledInsum.cost` (through ``estimated_ms``, ``describe()`` or
``source()``), never from :meth:`CompiledInsum.run`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from repro.core.inductor.autotune import AutotuneResult, autotune_tiles
from repro.core.inductor.config import InductorConfig
from repro.core.inductor.dot_rewrite import DotInfo, detect_dot
from repro.core.inductor.fusion import FusedKernelPlan, build_kernel_spec, fuse_stages
from repro.core.inductor.loop_ir import StageIR, lower_to_stages
from repro.core.insum.planner import InsumPlan
from repro.core.triton_sim.codegen import (
    DotStmt,
    IndexLoadStmt,
    KernelSource,
    LoadStmt,
    MacStmt,
    StoreStmt,
    generate_triton_source,
)
from repro.core.triton_sim.kernel import KernelSpec
from repro.core.triton_sim.profiler import CostReport, estimate_total_time
from repro.utils.timing import Timer

if TYPE_CHECKING:
    from repro.engine.specialize import SpecializedKernel


@dataclass
class CompiledInsum:
    """The result of compiling one indirect Einsum through the backend."""

    plan: InsumPlan
    config: InductorConfig
    stages: list[StageIR]
    kernel_plans: list[FusedKernelPlan]
    dot: DotInfo | None
    #: The executor: cache-sized windows when the schedule is fused, one
    #: window over the whole extent (every temporary materialised) when not.
    specialized: SpecializedKernel = field(repr=False)
    compile_seconds: float = 0.0

    # -- execution -----------------------------------------------------------
    @property
    def is_fused(self) -> bool:
        return len(self.kernel_plans) == 1

    def run(self, tensors: dict[str, np.ndarray]) -> np.ndarray:
        """Execute the compiled program on NumPy tensors (:attr:`specialized`)."""
        return self.specialized.run(tensors)

    # -- the GPU model, computed on first access --------------------------------
    @cached_property
    def autotune(self) -> AutotuneResult:
        """The tile search against the simulated device."""
        return autotune_tiles(self.plan, self.kernel_plans, self.dot, self.config)

    @cached_property
    def kernels(self) -> list[KernelSpec]:
        """One simulated kernel per fused kernel plan, at the tuned tiles."""
        tiles = self.autotune.best_tiles
        return [build_kernel_spec(kp, self.dot, self.config, tiles) for kp in self.kernel_plans]

    @cached_property
    def cost(self) -> CostReport:
        """The roofline cost report of :attr:`kernels` on the simulated device."""
        return estimate_total_time(self.kernels, self.config.device)

    # -- reporting ------------------------------------------------------------
    @property
    def estimated_ms(self) -> float:
        """Modelled GPU runtime of the whole program in milliseconds."""
        return self.cost.total_ms

    @property
    def num_kernels(self) -> int:
        return len(self.kernel_plans)

    def describe(self) -> str:
        """Readable compilation summary used by the examples."""
        lines = [self.plan.describe(), ""]
        lines.append(
            f"schedule: {self.num_kernels} kernel(s)"
            + (" [fully fused]" if self.is_fused else " [unfused: template matmul]")
        )
        if self.dot is not None:
            lines.append(f"dot pattern: {self.dot.describe()}")
        lines.append(f"tiles: {self.autotune.best_tiles}")
        lines.append(self.cost.summary())
        return "\n".join(lines)

    @cached_property
    def _source(self) -> str:
        return _render_main_kernel(self)

    def source(self) -> str:
        """Triton-style source text of the main generated kernel."""
        return self._source


def compile_plan(plan: InsumPlan, config: InductorConfig | None = None) -> CompiledInsum:
    """Compile an Insum plan with the given backend configuration."""
    # Imported here: repro.engine.specialize imports this package's
    # dot_rewrite module, so a module-level import would be circular.
    from repro.engine.specialize import materialize_plan, specialize_plan

    config = config or InductorConfig()
    config.validate()
    # The plan cache keys this compile on repr(config) as it reads now; the
    # model runs later, so it gets a copy the caller cannot mutate.
    tiles = config.tile_sizes
    config = replace(config, tile_sizes=None if tiles is None else dict(tiles))

    with Timer() as timer:
        dot = detect_dot(plan)
        stages = lower_to_stages(plan, config)
        kernel_plans = fuse_stages(stages, dot, config)
        specialized = (
            specialize_plan(plan, config) if len(kernel_plans) == 1 else materialize_plan(plan)
        )
    return CompiledInsum(
        plan=plan,
        config=config,
        stages=stages,
        kernel_plans=kernel_plans,
        dot=dot,
        compile_seconds=timer.elapsed,
        specialized=specialized,
    )


# ---------------------------------------------------------------------------
# Source rendering
# ---------------------------------------------------------------------------
def _render_main_kernel(compiled: CompiledInsum) -> str:
    """Build a :class:`KernelSource` for the main kernel and render it."""
    plan = compiled.plan
    config = compiled.config
    dot = compiled.dot
    info = plan.info
    extents = info.extents

    main_kernel = compiled.kernels[0] if compiled.is_fused else _contraction_kernel(compiled)
    uses_tensor_core = main_kernel.uses_tensor_core

    if dot is not None and config.native_dot:
        parallel_vars = [(v, extents[v]) for v in dot.batch_vars + dot.m_vars + dot.n_vars]
        reduction_vars = [(v, extents[v]) for v in dot.k_vars]
    else:
        parallel_vars = [(v, extents[v]) for v in plan.output_subscripts]
        reduction_vars = [(v, extents[v]) for v in info.reduction_vars]

    index_loads: list[IndexLoadStmt] = []
    loads: list[LoadStmt] = []
    seen_index_tensors: set[str] = set()
    for factor in plan.factors:
        subs = ",".join(factor.subscripts)
        if factor.is_indirect and factor.gather_index not in seen_index_tensors:
            seen_index_tensors.add(factor.gather_index)
            index_access = factor.access.indices[factor.gather_axis]
            idx_subs = ",".join(str(ix) for ix in index_access.indices)
            index_loads.append(
                IndexLoadStmt(
                    target=f"{factor.gather_index}_val",
                    buffer=factor.gather_index,
                    index_expr=idx_subs,
                    block_shape=idx_subs.upper(),
                )
            )
        loads.append(
            LoadStmt(
                target=f"{factor.access.tensor}_tile",
                buffer=factor.access.tensor,
                index_expr=str(factor.access).replace(factor.access.tensor, "", 1).strip("[]"),
                block_shape=subs.upper(),
                indirect=factor.is_indirect,
            )
        )

    body: list[object] = []
    if dot is not None and config.native_dot and uses_tensor_core:
        lhs_name = f"{plan.factors[dot.lhs_factor].access.tensor}_tile"
        rhs_name = f"{plan.factors[dot.rhs_factor].access.tensor}_tile"
        body.append(
            DotStmt(
                accumulator="acc",
                lhs=lhs_name,
                rhs=rhs_name,
                needs_view_transpose=not config.lazy_broadcasting,
            )
        )
        for position, factor in enumerate(plan.factors):
            if position not in (dot.lhs_factor, dot.rhs_factor):
                body.append(MacStmt(accumulator="acc", operands=[f"{factor.access.tensor}_tile"]))
    else:
        body.append(
            MacStmt(
                accumulator="acc",
                operands=[f"{f.access.tensor}_tile" for f in plan.factors],
            )
        )

    lhs = plan.statement.lhs
    store = StoreStmt(
        buffer=info.output_name,
        index_expr=str(lhs).replace(info.output_name, "", 1).strip("[]"),
        value="acc",
        atomic=plan.has_scatter,
    )

    source = KernelSource(
        name=compiled.kernels[0].name if compiled.is_fused else "insum_program",
        arguments=sorted(info.tensor_shapes.keys()),
        parallel_vars=parallel_vars,
        reduction_vars=reduction_vars,
        index_loads=index_loads,
        loads=loads,
        body=body,
        store=store,
        lazy_broadcasting=config.lazy_broadcasting,
    )
    return generate_triton_source(source)


def _contraction_kernel(compiled: CompiledInsum) -> KernelSpec:
    for kernel, kernel_plan in zip(compiled.kernels, compiled.kernel_plans):
        if any(stage.kind == "contraction" for stage in kernel_plan.stages):
            return kernel
    return compiled.kernels[0]
