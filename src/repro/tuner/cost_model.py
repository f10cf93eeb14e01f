"""The calibrated analytical cost model scoring candidate formats.

For an SpMM-shaped workload ``C[m,n] += A[m,k] * B[k,n]`` with ``A`` sparse
and ``n_cols`` dense output columns, each candidate format implies an exact
operation census:

=================  =====================  ==================  =================
candidate          gathered elements      scattered elements  multiply-adds
=================  =====================  ==================  =================
COO                ``S·n + 2S``           ``R·n``             ``2·S·n`` scalar
ELL                ``P·n + P``            0 (direct rows)     ``2·P·n`` scalar
GroupCOO(g)        ``P·n + P + G``        ``R·n``             ``2·P·n`` scalar
BlockCOO(b)        ``NB·bK·n + 2·NB``     ``RB·bM·n``         ``2·NB·bM·bK·n`` block
BlockGroupCOO(g)   ``PB·bK·n + PB + GB``  ``RB·bM·n``         ``2·PB·bM·bK·n`` block
=================  =====================  ==================  =================

where ``S`` = nnz, ``P`` = padded stored slots, ``G`` = number of groups,
``R`` = non-empty rows, ``NB`` = nonzero blocks, ``PB`` = padded stored
blocks, ``GB`` = block groups, ``RB`` = non-empty block rows.  The executor
sums the duplicates of an output row inside its dot
(:mod:`repro.engine.specialize`), so a scattering format stores each
non-empty row once, whatever its grouping.  Scalar multiply-adds run at the
batched vector–matrix ``np.matmul`` rate (COO's too: its values are the
dot's left side) and block multiply-adds at the block-``matmul`` rate — the
two rates (and the gather/scatter/overhead costs) come from the
:mod:`~repro.tuner.calibration` microbenchmarks, so the model prices
operations in *measured seconds on this machine*, not abstract counts.

That is the census of the step list.  Where the machine compiles plans to C
(:mod:`repro.engine.emit`; the calibration says so: ``Calibration.emitted``)
every row runs one fused loop nest instead — no gather pass, no stored row per
run, no window — and costs its multiply-adds alone, at the measured all-in
rate of its loop: the scalar ones times ``flop_ns``, the block ones (a
register tile per block row) times ``block_flop_ns``.

Every window the kernel walks also pays a fixed dispatch cost.  A window
holds at most ``_WINDOW_BYTES`` of gathered temporaries, and in a scattering
format only runs of one length — stored rows with equally many groups — so a
candidate runs ``L + gathered bytes / _WINDOW_BYTES`` windows, ``L`` the
number of distinct run lengths (1 for ELL).  This is what grouping buys on
skewed rows now that no format pays a scatter per group: ``ceil(occ/g)`` takes
far fewer distinct values than ``occ``.
"""

from __future__ import annotations

import numpy as np

from repro.engine.specialize import _WINDOW_BYTES
from repro.errors import ReproError
from repro.formats.group_size import exact_indirect_access_count
from repro.tuner.calibration import Calibration, get_calibration
from repro.tuner.candidates import Candidate, ScoredCandidate
from repro.tuner.profile import SparsityProfile


class TunerError(ReproError):
    """The tuner could not profile, score, or build a candidate."""


class CostModel:
    """Scores (format, parameters) candidates for a profiled operand.

    Parameters
    ----------
    calibration:
        Per-operation cost constants; defaults to the process-wide
        calibration (measured on first use, see
        :func:`repro.tuner.calibration.get_calibration`).
    """

    def __init__(self, calibration: Calibration | None = None):
        self.calibration = calibration if calibration is not None else get_calibration()

    # -- per-candidate censuses ---------------------------------------------
    def _census(
        self, profile: SparsityProfile, candidate: Candidate, n_cols: int
    ) -> tuple[float, float, float, float, float]:
        """``(gather, scatter, scalar_macs, block_macs)`` element counts, and
        the distinct run lengths the windows must keep apart."""
        nnz = profile.nnz
        occ = profile.occupancy
        name = candidate.format_name
        nonempty = occ[occ > 0]
        # The dot sums a row's duplicates: one stored row per non-empty row.
        scatter = nonempty.size * n_cols

        if name == "COO":
            lengths = np.unique(nonempty).size
            return nnz * n_cols + 2 * nnz, scatter, 2 * nnz * n_cols, 0.0, lengths

        if name == "ELL":
            padded = profile.shape[0] * profile.row_max
            return padded * n_cols + padded, 0.0, 2 * padded * n_cols, 0.0, 1

        if name == "GroupCOO":
            g = candidate.group_size or 1
            per_row = -(nonempty // -g)  # vectorised ceil_div
            groups = int(np.sum(per_row))
            padded = groups * g
            gather = padded * n_cols + padded + groups
            return gather, scatter, 2 * padded * n_cols, 0.0, np.unique(per_row).size

        if name in ("BlockCOO", "BlockGroupCOO"):
            if candidate.block_shape is None or candidate.block_shape not in profile.blocks:
                raise TunerError(
                    f"candidate {candidate.describe()} has no block statistics in the profile"
                )
            bm, bk = candidate.block_shape
            stats = profile.blocks[candidate.block_shape]
            scatter = stats.nonempty_rows * bm * n_cols
            g = 1 if name == "BlockCOO" else candidate.group_size or 1
            # At most every count up to the fullest block row's (summary
            # statistics only: the profile keeps no block-row histogram).
            lengths = min(stats.nonempty_rows, -(stats.row_max // -g))
            if name == "BlockCOO":
                nb = stats.num_blocks
                gather = nb * bk * n_cols + 2 * nb
                return gather, scatter, 0.0, 2 * nb * bm * bk * n_cols, lengths
            # Relaxed Section 4.2 group count over block rows (the profile
            # keeps only summary block statistics, not the full histogram).
            groups = stats.num_blocks / g + stats.nonempty_rows * (1 - 1 / g) * 0.5
            padded_blocks = groups * g
            gather = padded_blocks * bk * n_cols + padded_blocks + groups
            return gather, scatter, 0.0, 2 * padded_blocks * bm * bk * n_cols, lengths

        raise TunerError(f"cost model does not know candidate format {name!r}")

    # -- scoring -------------------------------------------------------------
    def estimate_ms(
        self, profile: SparsityProfile, candidate: Candidate, n_cols: int = 64
    ) -> float:
        """Modelled execution time of one SpMM with this candidate, in ms.

        Parameters
        ----------
        profile:
            The sparse operand's structural summary.
        candidate:
            The format configuration to price.
        n_cols:
            Width of the dense operand (``n`` in ``C[m,n]``).

        Returns
        -------
        float
            Estimated milliseconds per execution on this machine.
        """
        gather, scatter, scalar_macs, block_macs, lengths = self._census(
            profile, candidate, n_cols
        )
        cal = self.calibration
        if cal.emitted:
            # One call of the emitted loop nest: no gather pass, no stored row
            # per run, no window — the measured rate of its loop is all of it.
            return (scalar_macs * cal.flop_ns + block_macs * cal.block_flop_ns) / 1e6
        nanos = (
            gather * cal.gather_ns
            + scatter * cal.scatter_ns
            + scalar_macs * cal.flop_ns
            + block_macs * cal.block_flop_ns
        )
        windows = lengths + gather * 8 // _WINDOW_BYTES
        return nanos / 1e6 + windows * cal.overhead_us / 1e3

    def rank(
        self,
        profile: SparsityProfile,
        candidates: list[Candidate],
        n_cols: int = 64,
    ) -> list[ScoredCandidate]:
        """Score every candidate and return them cheapest-first.

        Parameters
        ----------
        profile:
            The sparse operand's structural summary.
        candidates:
            Format configurations to score (see ``enumerate_candidates``).
        n_cols:
            Width of the dense operand the SpMM multiplies against.
        """
        scored = [
            ScoredCandidate(candidate=c, modeled_ms=self.estimate_ms(profile, c, n_cols))
            for c in candidates
        ]
        return sorted(scored, key=lambda s: s.modeled_ms)

    # -- introspection -------------------------------------------------------
    def explain(
        self, profile: SparsityProfile, candidate: Candidate, n_cols: int = 64
    ) -> dict[str, float]:
        """Break one candidate's cost into its census terms (for reports).

        Parameters
        ----------
        profile:
            The sparse operand's structural summary.
        candidate:
            The format configuration to explain.
        n_cols:
            Width of the dense operand the SpMM multiplies against.

        Returns
        -------
        dict
            ``gather_elements``, ``scatter_elements``, ``scalar_macs``,
            ``block_macs``, ``run_lengths`` and the resulting ``modeled_ms``.
        """
        gather, scatter, scalar_macs, block_macs, lengths = self._census(
            profile, candidate, n_cols
        )
        return {
            "gather_elements": float(gather),
            "scatter_elements": float(scatter),
            "scalar_macs": float(scalar_macs),
            "block_macs": float(block_macs),
            "run_lengths": float(lengths),
            "modeled_ms": self.estimate_ms(profile, candidate, n_cols),
        }


def indirect_access_count(profile: SparsityProfile, group_size: int) -> int:
    """The paper's ``F(g)`` evaluated on a profile's occupancy histogram."""
    return exact_indirect_access_count(np.asarray(profile.occupancy), group_size)
