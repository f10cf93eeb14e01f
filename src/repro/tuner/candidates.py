"""Candidate enumeration: the (format, parameters) space the tuner picks from.

Given a :class:`~repro.tuner.profile.SparsityProfile`, enumerate the
concrete format configurations worth running (typically 4–8), which
``benchmarks/bench_tuner_adaptive.py`` times against the tuner's pick:

* ``COO`` — the universal fallback, always feasible;
* ``ELL`` — only when the padded width is not catastrophic
  (``rows * row_max`` bounded relative to nnz);
* ``GroupCOO`` — one candidate per power-of-two group size bracketing the
  Section 4.2 estimate ``g*``;
* ``BlockCOO`` / ``BlockGroupCOO`` — for every scored block shape whose
  fill clears a floor (unstructured data never pays block padding).

The rule of :mod:`repro.tuner.auto` always picks one of these.
``docs/FORMATS.md`` documents each format's layout and the regime in which
the rule picks it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.formats.base import SparseFormat
from repro.formats.blockcoo import BlockCOO
from repro.formats.blockgroupcoo import BlockGroupCOO
from repro.formats.coo import COO
from repro.formats.ell import ELL
from repro.formats.group_size import power_of_two_candidates
from repro.formats.groupcoo import GroupCOO
from repro.tuner.profile import SparsityProfile
from repro.utils.arrays import next_power_of_two

#: ELL candidates are dropped when padding would exceed this multiple of nnz.
_ELL_PADDING_LIMIT = 8.0

#: Minimum block fill for block formats to enter the candidate set.
_BLOCK_FILL_FLOOR = 0.25


@dataclass(frozen=True)
class Candidate:
    """One point of the tuner's search space.

    Attributes
    ----------
    format_name:
        ``"COO"``, ``"ELL"``, ``"GroupCOO"``, ``"BlockCOO"``, or
        ``"BlockGroupCOO"``.
    group_size:
        Group size for the grouped formats (``None`` otherwise).
    block_shape:
        ``(bM, bK)`` for the block formats (``None`` otherwise).
    """

    format_name: str
    group_size: int | None = None
    block_shape: tuple[int, int] | None = None

    def describe(self) -> str:
        """Short human-readable label, e.g. ``GroupCOO(g=4)``."""
        parts = []
        if self.group_size is not None:
            parts.append(f"g={self.group_size}")
        if self.block_shape is not None:
            parts.append(f"b={self.block_shape[0]}x{self.block_shape[1]}")
        return f"{self.format_name}({', '.join(parts)})" if parts else self.format_name

    def build(self, dense: np.ndarray) -> SparseFormat:
        """Materialise this candidate's format from a dense matrix."""
        if self.format_name == "COO":
            return COO.from_dense(dense)
        if self.format_name == "ELL":
            return ELL.from_dense(dense)
        if self.format_name == "GroupCOO":
            return GroupCOO.from_dense(dense, group_size=self.group_size)
        if self.format_name == "BlockCOO":
            assert self.block_shape is not None
            return BlockCOO.from_dense(dense, self.block_shape)
        if self.format_name == "BlockGroupCOO":
            assert self.block_shape is not None
            return BlockGroupCOO.from_dense(
                dense, self.block_shape, group_size=self.group_size
            )
        raise ValueError(f"unknown candidate format {self.format_name!r}")

    def matches(self, operand: SparseFormat) -> bool:
        """Whether an existing format instance already realises this candidate."""
        if operand.format_name != self.format_name:
            return False
        if self.group_size is not None and getattr(operand, "group_size", None) != self.group_size:
            return False
        if self.block_shape is not None and getattr(operand, "block_shape", None) != tuple(
            self.block_shape
        ):
            return False
        return True


def enumerate_candidates(profile: SparsityProfile) -> list[Candidate]:
    """The candidate set for one profile.

    Parameters
    ----------
    profile:
        The operand's structural summary.

    Returns
    -------
    list[Candidate]
        Feasible candidates, COO first (the safe fallback).
    """
    candidates: list[Candidate] = [Candidate("COO")]
    if profile.nnz == 0:
        return candidates

    rows = profile.shape[0]
    if profile.row_max and rows * profile.row_max <= _ELL_PADDING_LIMIT * profile.nnz:
        candidates.append(Candidate("ELL"))

    # Group sizes up to the power of two above the fullest row, as
    # ``select_group_size`` bounds them.
    for g in power_of_two_candidates(profile.g_star, next_power_of_two(profile.row_max)):
        if g > 1:
            candidates.append(Candidate("GroupCOO", group_size=g))

    for block_shape, stats in profile.blocks.items():
        if stats.fill < _BLOCK_FILL_FLOOR:
            continue
        candidates.append(Candidate("BlockCOO", block_shape=block_shape))
        for g in power_of_two_candidates(stats.g_star, next_power_of_two(stats.row_max)):
            if g > 1:
                candidates.append(Candidate("BlockGroupCOO", group_size=g, block_shape=block_shape))
    return candidates
