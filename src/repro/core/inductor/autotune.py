"""Tile-size autotuning against the analytical device model.

The paper integrates the PyTorch compiler's autotuning so users never write
schedules (Section 6.7, Table 3).  Here the candidate tile configurations
are evaluated with the cost model; the ``modeled_seconds`` field estimates
what the search would have cost on real hardware (each candidate requires a
Triton compile plus a few timed runs), which is the number reported in the
Table 3 reproduction.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.inductor.config import InductorConfig
from repro.core.inductor.dot_rewrite import DotInfo
from repro.core.inductor.fusion import FusedKernelPlan, build_kernel_spec
from repro.core.inductor.tiling import candidate_tiles
from repro.core.insum.planner import InsumPlan
from repro.core.triton_sim.device import DeviceModel
from repro.core.triton_sim.profiler import estimate_total_time
from repro.errors import AutotuneError
from repro.utils.timing import Timer

#: Estimated wall-clock cost of evaluating one candidate on real hardware:
#: a Triton compile (~0.3 s) plus warm-up and timed runs.
_SECONDS_PER_CANDIDATE_ON_DEVICE = 0.35


@dataclass
class AutotuneResult:
    """Outcome of the tile search."""

    best_tiles: dict[str, int]
    best_cost_ms: float
    candidates_evaluated: int
    search_seconds: float
    modeled_seconds: float


def autotune_tiles(
    plan: InsumPlan,
    kernel_plans: list[FusedKernelPlan],
    dot: DotInfo | None,
    config: InductorConfig,
    dtype: str,
    device: DeviceModel,
    tiles: dict[str, int] | None = None,
) -> AutotuneResult:
    """Pick the tile configuration minimising the modelled runtime.

    Explicit ``tiles`` skip the search: they are the one candidate.
    """
    if tiles is not None:
        tiles = dict(tiles)
        kernels = [build_kernel_spec(kp, dot, config, dtype, tiles) for kp in kernel_plans]
        cost = estimate_total_time(kernels, device).total_ms
        return AutotuneResult(
            best_tiles=tiles,
            best_cost_ms=cost,
            candidates_evaluated=1,
            search_seconds=0.0,
            modeled_seconds=0.0,
        )

    candidates = candidate_tiles(plan, dot, config, dtype, device)
    if not candidates:
        raise AutotuneError("no valid tile configuration found for this problem")

    best_tiles: dict[str, int] | None = None
    best_cost = float("inf")
    with Timer() as timer:
        for tiles in candidates:
            kernels = [build_kernel_spec(kp, dot, config, dtype, tiles) for kp in kernel_plans]
            cost = estimate_total_time(kernels, device).total_ms
            if cost < best_cost:
                best_cost = cost
                best_tiles = tiles
    assert best_tiles is not None
    return AutotuneResult(
        best_tiles=best_tiles,
        best_cost_ms=best_cost,
        candidates_evaluated=len(candidates),
        search_seconds=timer.elapsed,
        modeled_seconds=len(candidates) * _SECONDS_PER_CANDIDATE_ON_DEVICE,
    )
