"""Schedule suggestions: from a format decision to backend tiles.

The tuner does not stop at picking a format — a (format, planner-config,
tiling) triple is the real decision.  This module turns a chosen
candidate into a :class:`ScheduleHint`: preferred Triton-style tile sizes
(for block candidates, matched to the block shape).

The Insum planner stores the hint on the plan
(:attr:`repro.core.insum.planner.InsumPlan.schedule_hint`), and the
backend's autotuner evaluates the hinted tiles as an extra candidate — the
search still picks the modelled minimum, so the hint can only help.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.tuner.candidates import Candidate
from repro.utils.arrays import next_power_of_two, prev_power_of_two


@dataclass(frozen=True)
class ScheduleHint:
    """Tuner-suggested schedule parameters for one compiled Einsum.

    Attributes
    ----------
    tile_sizes:
        Preferred tile assignment for the simulated Triton kernel, or
        ``None`` to leave the choice entirely to the autotuner.
    """

    tile_sizes: dict[str, int] | None = None


def _clamp_pow2(value: int, lo: int, hi: int) -> int:
    """Round ``value`` to a power of two inside ``[lo, hi]``."""
    value = max(1, int(value))
    return max(lo, min(hi, prev_power_of_two(max(1, value))))


def suggest_schedule(candidate: Candidate, n_cols: int = 64) -> ScheduleHint:
    """Derive schedule parameters from the chosen format.

    Parameters
    ----------
    candidate:
        The format configuration the tuner selected.
    n_cols:
        Dense operand width of the SpMM-shaped workload.

    Returns
    -------
    ScheduleHint
        For block formats, a tile preference aligned with the block shape.
    """
    tiles: dict[str, int] | None = None
    if candidate.block_shape is not None:
        bm, bk = candidate.block_shape
        tiles = {
            "m": _clamp_pow2(bm, 1, 64),
            "n": _clamp_pow2(next_power_of_two(max(1, n_cols)), 1, 128),
            "k": _clamp_pow2(bk, 1, 64),
        }
    return ScheduleHint(tile_sizes=tiles)
