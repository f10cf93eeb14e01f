"""Tile-size selection for the generated kernels.

With ``ops.dot`` present, the output is tiled two-dimensionally over the
(M, N) variables instead of being flattened into a single program axis
(Section 5.2.2, point 1).  Without it, stock TorchInductor flattens all
pointwise indices into one dimension, which is modelled here as a single
"yx" tile.  Tile sizes must be powers of two (Triton requirement) and must
fit the device's shared memory.
"""

from __future__ import annotations

from repro.core.inductor.config import InductorConfig
from repro.core.inductor.dot_rewrite import DotInfo
from repro.core.insum.planner import InsumPlan
from repro.core.triton_sim.device import DeviceModel
from repro.utils.arrays import next_power_of_two, prev_power_of_two


def default_tiles(plan: InsumPlan, dot: DotInfo | None, config: InductorConfig) -> dict[str, int]:
    """A sensible non-autotuned tile assignment."""
    if dot is None or not config.native_dot:
        total = 1
        for var in plan.output_subscripts:
            total *= plan.info.extents[var]
        return {"yx": min(1024, next_power_of_two(max(1, total)))}
    return {
        "m": _clamp_tile(dot.m, 32),
        "n": _clamp_tile(dot.n, 32),
        "k": _clamp_tile(dot.k, 32),
    }


def candidate_tiles(
    plan: InsumPlan, dot: DotInfo | None, config: InductorConfig, dtype: str, device: DeviceModel
) -> list[dict[str, int]]:
    """The autotuning search space (a small grid, as in torch.compile)."""
    if dot is None or not config.native_dot:
        base = default_tiles(plan, dot, config)["yx"]
        sizes = sorted({max(32, base // 4), max(32, base // 2), base, base * 2})
        return [{"yx": s} for s in sizes]

    candidates = []
    for tile_m in (16, 32, 64):
        for tile_n in (32, 64, 128):
            for tile_k in (16, 32, 64):
                tiles = {
                    "m": min(tile_m, _clamp_tile(dot.m, tile_m)),
                    "n": min(tile_n, _clamp_tile(dot.n, tile_n)),
                    "k": min(tile_k, _clamp_tile(dot.k, tile_k)),
                }
                if tiles not in candidates and _fits_shared_memory(tiles, dtype, device):
                    candidates.append(tiles)
    return candidates or [default_tiles(plan, dot, config)]


def _clamp_tile(extent: int, preferred: int) -> int:
    """Largest power-of-two tile not exceeding the extent (at least 1)."""
    if extent <= 1:
        return 1
    return min(preferred, prev_power_of_two(extent))


def _fits_shared_memory(tiles: dict[str, int], dtype: str, device: DeviceModel) -> bool:
    """Reject tile combinations whose operand tiles exceed shared memory."""
    element_bytes = 2 if dtype == "fp16" else 4
    tile_m = tiles.get("m", 1)
    tile_n = tiles.get("n", 1)
    tile_k = tiles.get("k", 1)
    required = (tile_m * tile_k + tile_k * tile_n + tile_m * tile_n) * element_bytes
    return required <= device.shared_memory_per_sm
