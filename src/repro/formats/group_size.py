"""Group-size selection for GroupCOO-style formats (Section 4.2).

The paper models the cost of a grouped format by the total number of
indirect memory accesses (gathers of column coordinates plus scatters of
group row coordinates)::

    F(g) = sum_i ceil(occ_i / g)          # AM: one scatter per group
         + g * sum_i ceil(occ_i / g)      # AK: one gather per slot
         = (g + 1) * sum_i ceil(occ_i / g)

where ``occ_i`` is the number of nonzeros in row ``i``.  Relaxing the
ceiling gives the closed-form estimate ``g* = sqrt(S / n)`` with
``S = sum_i occ_i``, which is then rounded to nearby powers of two because
the Triton backend prefers power-of-two block sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.utils.arrays import ceil_div, next_power_of_two, prev_power_of_two


def exact_indirect_access_count(occupancy: Sequence[int] | np.ndarray, group_size: int) -> int:
    """The exact cost model ``F(g)`` from Section 4.2.

    Parameters
    ----------
    occupancy:
        Nonzeros per row (``occ`` in the paper; Figure 4 uses [3, 1, 1, 2]).
    group_size:
        Candidate group size ``g`` (>= 1).
    """
    if group_size < 1:
        raise ValueError(f"group size must be >= 1, got {group_size}")
    occ = np.asarray(occupancy, dtype=np.int64)
    groups = int((-(-occ[occ > 0] // group_size)).sum())
    return (group_size + 1) * groups


def relaxed_indirect_access_count(
    occupancy: Sequence[int] | np.ndarray, group_size: float
) -> float:
    """The relaxed cost model ``F~(g) = S + S/g + n*g + n`` from Section 4.2."""
    if group_size <= 0:
        raise ValueError(f"group size must be positive, got {group_size}")
    occ = np.asarray(occupancy, dtype=np.int64)
    n = int((occ > 0).sum()) if occ.size else 0
    total = int(occ.sum())
    return total + total / group_size + n * group_size + n


def optimal_group_size(occupancy: Sequence[int] | np.ndarray) -> float:
    """Closed-form minimiser ``g* = sqrt(S / n)`` of the relaxed cost model.

    ``n`` counts only the rows that actually contain nonzeros: empty rows
    contribute neither groups nor gathers, so including them would bias the
    estimate toward overly small groups on hypersparse matrices.
    """
    occ = np.asarray(occupancy, dtype=np.int64)
    nonempty = occ[occ > 0]
    if nonempty.size == 0:
        return 1.0
    total = float(nonempty.sum())
    return float(np.sqrt(total / nonempty.size))


def power_of_two_candidates(g_star: float, max_group: int | None = None) -> list[int]:
    """Power-of-two group sizes bracketing ``g*`` (Section 4.2 heuristic)."""
    if g_star < 1.0:
        candidates = [1]
    else:
        lo = prev_power_of_two(max(1, int(np.floor(g_star))))
        hi = next_power_of_two(max(1, int(np.ceil(g_star))))
        candidates = sorted({lo, hi, max(1, lo // 2), hi * 2})
    if max_group is not None:
        candidates = [c for c in candidates if c <= max_group] or [1]
    return candidates


def select_group_size(
    occupancy: Sequence[int] | np.ndarray,
    runtime_fn: Callable[[int], float] | None = None,
    max_group: int | None = None,
) -> int:
    """Pick a group size using the paper's heuristic.

    First computes ``g* = sqrt(S/n)``, then evaluates the nearby
    power-of-two candidates.

    Parameters
    ----------
    occupancy:
        Nonzeros per row (``occ`` in the paper).
    runtime_fn:
        Optional callable returning a measured/modelled runtime for a
        candidate ``g``; when given, the best-by-runtime candidate wins,
        mirroring the paper's "round to the nearest power-of-two values
        and select the one with the best runtime".  Without it,
        candidates are ranked by the exact indirect-access count ``F(g)``.
    max_group:
        Upper bound on the candidate group sizes (defaults to the next
        power of two above the maximum row occupancy).
    """
    occ = np.asarray(occupancy, dtype=np.int64)
    if max_group is None and occ.size:
        max_occ = int(occ.max())
        max_group = max(1, next_power_of_two(max(1, max_occ)))
    g_star = optimal_group_size(occ)
    candidates = power_of_two_candidates(g_star, max_group=max_group)
    if runtime_fn is not None:
        return min(candidates, key=runtime_fn)
    # F(g) of every candidate at once, from the number of rows of each
    # occupancy; argmin keeps ``min``'s first-wins ties.
    rows = np.bincount(occ)
    sizes = np.asarray(candidates, dtype=np.int64)
    costs = (sizes + 1) * (rows * -(-np.arange(rows.size) // sizes[:, None])).sum(axis=1)
    return candidates[int(np.argmin(costs))]


@dataclass
class GroupSizeModel:
    """Convenience wrapper bundling the cost curves for a given occupancy.

    Used by the Figure 7 benchmark to sweep group sizes and report the
    correlation between runtime, indirect accesses, and format size.
    """

    occupancy: np.ndarray

    def __post_init__(self) -> None:
        self.occupancy = np.asarray(self.occupancy, dtype=np.int64)

    @property
    def total_nonzeros(self) -> int:
        """Total nonzeros ``S = Σᵢ occᵢ``."""
        return int(self.occupancy.sum())

    @property
    def g_star(self) -> float:
        """The closed-form group-size estimate ``√(S/n)``."""
        return optimal_group_size(self.occupancy)

    def exact_cost(self, group_size: int) -> int:
        """The exact indirect-access count ``F(g)`` for this occupancy."""
        return exact_indirect_access_count(self.occupancy, group_size)

    def relaxed_cost(self, group_size: float) -> float:
        """The relaxed (continuous) cost ``F~(g)`` for this occupancy."""
        return relaxed_indirect_access_count(self.occupancy, group_size)

    def padded_slots(self, group_size: int) -> int:
        """Total stored value slots after padding each row to a multiple of g."""
        return int(
            sum(ceil_div(int(o), group_size) * group_size for o in self.occupancy if o > 0)
        )

    def format_size(self, group_size: int, value_slot_elems: int = 1) -> int:
        """Stored elements of AM + AK + AV for group size ``g``.

        ``value_slot_elems`` scales the AV contribution for block formats,
        where each slot stores an entire ``bM x bK`` block.
        """
        groups = int(sum(ceil_div(int(o), group_size) for o in self.occupancy if o > 0))
        padded = self.padded_slots(group_size)
        return groups + padded + padded * value_slot_elems

    def sweep(self, group_sizes: Sequence[int]) -> dict[int, dict[str, float]]:
        """Evaluate the cost curves over a range of group sizes."""
        out: dict[int, dict[str, float]] = {}
        for g in group_sizes:
            out[int(g)] = {
                "indirect_accesses": float(self.exact_cost(int(g))),
                "relaxed": self.relaxed_cost(int(g)),
                "format_size": float(self.format_size(int(g))),
            }
        return out
