"""Compilation driver: plan → executable; the GPU model priced on request.

:func:`compile_plan` is the backend entry point used by
:class:`repro.core.insum.api.Insum`.  It does only the work whose result
executes: it detects the dot pattern, decides whether the schedule fuses
and compiles the plan's :class:`~repro.engine.specialize.SpecializedKernel`
— cache-sized windows for a fused schedule, one whole-extent window for an
unfused one.  The analytical GPU model — stage lowering, the tile search,
the kernel specs and the cost report — runs in :meth:`CompiledInsum.price`
for a value dtype, tile choice and device, once per distinct request, and
never from :meth:`CompiledInsum.run`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core.inductor.autotune import AutotuneResult, autotune_tiles
from repro.core.inductor.config import InductorConfig
from repro.core.inductor.dot_rewrite import DotInfo, detect_dot
from repro.core.inductor.fusion import FusedKernelPlan, build_kernel_spec, fuse_stages, fuses
from repro.core.inductor.loop_ir import StageIR, lower_to_stages
from repro.core.insum.planner import InsumPlan
from repro.core.triton_sim.device import DeviceModel, RTX3090
from repro.core.triton_sim.kernel import KernelSpec
from repro.core.triton_sim.profiler import CostReport, estimate_total_time
from repro.utils.timing import Timer

if TYPE_CHECKING:
    from repro.engine.specialize import SpecializedKernel


@dataclass(frozen=True)
class Pricing:
    """The GPU model of one compiled program at one dtype, tile choice and device."""

    stages: list[StageIR]
    kernel_plans: list[FusedKernelPlan]
    #: The tile search against the simulated device (one candidate when
    #: the tiles were given).
    autotune: AutotuneResult
    #: One simulated kernel per fused kernel plan, at the tuned tiles.
    kernels: list[KernelSpec]
    #: The roofline cost report of :attr:`kernels` on the device.
    cost: CostReport

    @property
    def estimated_ms(self) -> float:
        """Modelled GPU runtime of the whole program in milliseconds."""
        return self.cost.total_ms

    @property
    def num_kernels(self) -> int:
        return len(self.kernel_plans)


@dataclass
class CompiledInsum:
    """The result of compiling one indirect Einsum through the backend."""

    plan: InsumPlan
    config: InductorConfig
    dot: DotInfo | None
    is_fused: bool
    #: The executor: cache-sized windows when the schedule is fused, one
    #: window over the whole extent (every temporary materialised) when not.
    specialized: SpecializedKernel = field(repr=False)
    compile_seconds: float = 0.0
    _prices: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def run(self, tensors: dict[str, np.ndarray]) -> np.ndarray:
        """Execute the compiled program on NumPy tensors (:attr:`specialized`)."""
        return self.specialized.run(tensors)

    # -- the GPU model, priced on request -------------------------------------------
    def price(
        self,
        dtype: str = "fp32",
        tiles: dict[str, int] | None = None,
        device: DeviceModel = RTX3090,
    ) -> Pricing:
        """The GPU model at a value ``dtype``, explicit ``tiles`` (None = autotune) and ``device``.

        Memoised per distinct request: equal tile dicts share one entry
        whatever their insertion order.
        """
        key = (dtype, None if tiles is None else tuple(sorted(tiles.items())), device)
        pricing = self._prices.get(key)
        if pricing is None:
            if dtype not in ("fp16", "fp32"):
                raise ValueError(f"unsupported dtype {dtype!r}; use 'fp16' or 'fp32'")
            for role, size in (tiles or {}).items():
                if size < 1:
                    raise ValueError(f"tile size {role!r} must be positive, got {size}")
            stages = lower_to_stages(self.plan, dtype)
            kernel_plans = fuse_stages(stages, self.dot, self.config)
            tuned = autotune_tiles(
                self.plan, kernel_plans, self.dot, self.config, dtype, device, tiles
            )
            kernels = [
                build_kernel_spec(kp, self.dot, self.config, dtype, tuned.best_tiles)
                for kp in kernel_plans
            ]
            cost = estimate_total_time(kernels, device)
            pricing = self._prices[key] = Pricing(stages, kernel_plans, tuned, kernels, cost)
        return pricing

    # -- the default pricing (fp32, autotuned, RTX 3090) ------------------------------
    @property
    def stages(self) -> list[StageIR]:
        return self.price().stages

    @property
    def kernel_plans(self) -> list[FusedKernelPlan]:
        return self.price().kernel_plans

    @property
    def autotune(self) -> AutotuneResult:
        return self.price().autotune

    @property
    def kernels(self) -> list[KernelSpec]:
        return self.price().kernels

    @property
    def cost(self) -> CostReport:
        return self.price().cost

    @property
    def estimated_ms(self) -> float:
        """Modelled GPU runtime of the whole program in milliseconds."""
        return self.price().estimated_ms

    @property
    def num_kernels(self) -> int:
        return self.price().num_kernels

    def describe(self) -> str:
        """Readable compilation summary used by the examples."""
        pricing = self.price()
        lines = [self.plan.describe(), ""]
        lines.append(
            f"schedule: {pricing.num_kernels} kernel(s)"
            + (" [fully fused]" if self.is_fused else " [unfused: template matmul]")
        )
        if self.dot is not None:
            lines.append(f"dot pattern: {self.dot.describe()}")
        lines.append(f"tiles: {pricing.autotune.best_tiles}")
        lines.append(pricing.cost.summary())
        return "\n".join(lines)


def compile_plan(plan: InsumPlan, config: InductorConfig | None = None) -> CompiledInsum:
    """Compile an Insum plan with the given backend configuration."""
    # Imported here: repro.engine.specialize imports this package's
    # dot_rewrite module, so a module-level import would be circular.
    from repro.engine.specialize import materialize_plan, specialize_plan

    config = config or InductorConfig()
    with Timer() as timer:
        dot = detect_dot(plan)
        fused = fuses(dot, config)
        specialized = specialize_plan(plan, config) if fused else materialize_plan(plan)
    return CompiledInsum(
        plan=plan,
        config=config,
        dot=dot,
        is_fused=fused,
        compile_seconds=timer.elapsed,
        specialized=specialized,
    )
