"""The calibrated analytical cost model scoring candidate formats.

For an SpMM-shaped workload ``C[m,n] += A[m,k] * B[k,n]`` with ``A`` sparse
and ``n_cols`` dense output columns, each candidate format implies an exact
operation census.  Its stored units ``U`` — slots, or blocks — set the rest:
``U·bK·n`` gathered elements and ``2·U·bM·bK·n`` multiply-adds (``bM = bK =
1`` for the scalar formats):

=================  ============  ==============  ==================  ==========
candidate          stored units  index loads     scattered elements  MACs
=================  ============  ==============  ==================  ==========
COO                ``S``         ``2S``          ``R·n``             scalar
ELL                ``P``         ``P``           0 (direct rows)     scalar
GroupCOO(g)        ``P``         ``P + G``       ``R·n``             scalar
BlockCOO(b)        ``NB``        ``2·NB``        ``RB·bM·n``         block
BlockGroupCOO(g)   ``PB``        ``PB + GB``     ``RB·bM·n``         block
=================  ============  ==============  ==================  ==========

where ``S`` = nnz, ``P`` = padded stored slots, ``G`` = number of groups,
``R`` = non-empty rows, ``NB`` = nonzero blocks, ``PB`` = padded stored
blocks, ``GB`` = block groups, ``RB`` = non-empty block rows.  The
:mod:`~repro.tuner.calibration` microbenchmarks price each count in
*measured nanoseconds on this machine*: ``flop_ns`` a scalar multiply or add,
``block_flop_ns`` one inside a block, and ``unit_ns`` what a unit costs
whatever the width ``n``.

Where the machine compiles plans to C (:mod:`repro.engine.emit`; the
calibration says so: ``Calibration.emitted``) a candidate is one call of one
fused loop nest — no gather pass, no stored row per run, no window — and
costs its multiply-adds and ``unit_ns`` per stored unit.  A unit's index
loads and its per-unit loop work (for a block, the register tile's) are that
constant: an extra load per unit hides under the unit's row traffic, which
is why a COO nonzero costs a GroupCOO slot.  The unit term alone separates
candidates doing equally many multiply-adds, such as the block shapes tiling
the same nonzeros.

The step list instead handles every index as an array element of its own, so
there ``unit_ns`` is paid per index load — what separates COO (two a nonzero)
from GroupCOO (``1 + 1/g`` a slot) on evenly filled rows — on top of the
gathered and scattered elements.  The executor sums the duplicates of an
output row inside its dot (:mod:`repro.engine.specialize`), so a scattering
format stores each non-empty row once, whatever its grouping.  Every window
the kernel walks also pays a fixed dispatch cost.  A window holds at most
``_WINDOW_BYTES`` of gathered temporaries, and in a scattering format only
runs of one length — stored rows with equally many groups — so a candidate
runs ``L + gathered bytes / _WINDOW_BYTES`` windows, ``L`` the number of
distinct run lengths (1 for ELL).  This is what grouping buys on skewed rows
now that no format pays a scatter per group: ``ceil(occ/g)`` takes far fewer
distinct values than ``occ``.
"""

from __future__ import annotations

import numpy as np

from repro.engine.specialize import _WINDOW_BYTES
from repro.errors import ReproError
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
    ) -> dict[str, float]:
        """The candidate's operation counts, under :meth:`explain`'s names."""
        name, g = candidate.format_name, candidate.group_size or 1
        block = name in ("BlockCOO", "BlockGroupCOO")
        nonempty = profile.occupancy[profile.occupancy > 0]
        # The dot sums a row's duplicates: one stored row per non-empty row.
        rows = nonempty.size
        if name == "COO":
            units = targets = profile.nnz
            lengths = np.unique(nonempty).size
        elif name == "ELL":
            units, targets, rows, lengths = profile.shape[0] * profile.row_max, 0, 0, 1
        elif name == "GroupCOO":
            per_row = -(nonempty // -g)  # vectorised ceil_div
            targets = int(np.sum(per_row))
            units, lengths = targets * g, np.unique(per_row).size
        elif block:
            stats = profile.blocks.get(candidate.block_shape)
            if stats is None:
                raise TunerError(
                    f"candidate {candidate.describe()} has no block statistics in the profile"
                )
            rows = stats.nonempty_rows * candidate.block_shape[0]
            # At most every count up to the fullest block row's (summary
            # statistics only: the profile keeps no block-row histogram).
            lengths = min(stats.nonempty_rows, -(stats.row_max // -g))
            # BlockCOO: one target a block; BlockGroupCOO: the relaxed
            # Section 4.2 group count over block rows.
            targets = stats.num_blocks / g + stats.nonempty_rows * (1 - 1 / g) * 0.5
            units = targets * g
        else:
            raise TunerError(f"cost model does not know candidate format {name!r}")
        bm, bk = candidate.block_shape if block else (1, 1)
        macs = 2 * units * bm * bk * n_cols
        return {
            "gather_elements": float(units * bk * n_cols),
            "stored_units": float(units),
            "index_loads": float(units + targets),
            "scatter_elements": float(rows * n_cols),
            "scalar_macs": 0.0 if block else float(macs),
            "block_macs": float(macs) if block else 0.0,
            "run_lengths": float(lengths),
        }

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
        return self._price(self._census(profile, candidate, n_cols))

    def _price(self, terms: dict[str, float]) -> float:
        """Milliseconds of a census on this calibration."""
        cal = self.calibration
        nanos = terms["scalar_macs"] * cal.flop_ns + terms["block_macs"] * cal.block_flop_ns
        if cal.emitted:
            # One call of the emitted loop nest: no gather pass, no stored row
            # per run, no window — its multiply-adds and stored units are all.
            return (nanos + terms["stored_units"] * cal.unit_ns) / 1e6
        gather = terms["gather_elements"]
        nanos += (
            gather * cal.gather_ns
            + terms["index_loads"] * cal.unit_ns
            + terms["scatter_elements"] * cal.scatter_ns
        )
        windows = terms["run_lengths"] + gather * 8 // _WINDOW_BYTES
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
            ``gather_elements``, ``stored_units``, ``index_loads``,
            ``scatter_elements``, ``scalar_macs``, ``block_macs``,
            ``run_lengths`` and the resulting ``modeled_ms``.
        """
        terms = self._census(profile, candidate, n_cols)
        return {**terms, "modeled_ms": self._price(terms)}
