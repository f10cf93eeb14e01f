"""Automatic format selection: ``auto_format`` and the decision cache.

The front door of the tuner:

* :func:`auto_format` — profile an operand, rank the candidate formats with
  the calibrated cost model, and return the operand built in the winner.
* :func:`choose_format` — the decision itself: profile → ranked candidates.
  The model decides; no candidate is built or timed on the way, as the
  paper's Section 4.2 picks a group size in closed form.
* :class:`DecisionCache` — decisions memoised by
  :meth:`~repro.tuner.profile.SparsityProfile.bucket`, so a serving
  process profiles each sparsity *regime* once and every later request in
  the same bucket reuses the choice.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.formats.base import SparseFormat
from repro.obs.metrics import get_registry
from repro.tuner.candidates import Candidate, ScoredCandidate, enumerate_candidates
from repro.tuner.cost_model import CostModel
from repro.tuner.profile import SparsityProfile, profile_operand


@dataclass(frozen=True)
class TunerDecision:
    """Outcome of one format-selection run.

    Attributes
    ----------
    bucket:
        The profile bucket the decision applies to, and the width it was
        made for.
    ranked:
        Every scored candidate, cheapest-first.
    profile:
        The profile the decision was scored against (the *first* operand
        of the bucket when the decision came from the cache).
    """

    bucket: tuple
    ranked: tuple[ScoredCandidate, ...]
    profile: SparsityProfile | None = field(default=None, compare=False, repr=False)

    @property
    def chosen(self) -> ScoredCandidate:
        """The winning candidate with its modelled cost."""
        return self.ranked[0]

    @property
    def candidate(self) -> Candidate:
        """The winning format configuration."""
        return self.chosen.candidate

    def describe(self) -> str:
        """One line per candidate with its modelled cost."""
        lines = [f"tuner decision: {self.candidate.describe()}"]
        for scored in self.ranked:
            mark = "->" if scored.candidate == self.candidate else "  "
            lines.append(
                f"  {mark} {scored.candidate.describe():<24s} modeled {scored.modeled_ms:8.4f} ms"
            )
        return "\n".join(lines)


class DecisionCache:
    """Thread-safe LRU memo of tuner decisions keyed by profile bucket.

    Bounded like the plan cache: each entry retains its profile (an
    O(rows) occupancy array), so a long-lived server seeing many distinct
    shapes must not accumulate decisions forever.  Entries are promoted
    on hit and the least-recently-used is evicted beyond ``maxsize``.
    """

    def __init__(self, maxsize: int = 256) -> None:
        if maxsize < 1:
            raise ValueError(f"decision cache maxsize must be >= 1, got {maxsize}")
        self._maxsize = int(maxsize)
        self._decisions: OrderedDict[tuple, TunerDecision] = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        registry = get_registry()
        decision_help = "Tuner decision-cache lookups, by outcome."
        self._m_hits = registry.counter(
            "repro_tuner_decisions_total", decision_help, outcome="hit"
        )
        self._m_misses = registry.counter(
            "repro_tuner_decisions_total", decision_help, outcome="miss"
        )

    def get(self, bucket: tuple) -> TunerDecision | None:
        """Look up a cached decision, counting a hit or a miss."""
        with self._lock:
            decision = self._decisions.get(bucket)
            if decision is None:
                self._misses += 1
            else:
                self._decisions.move_to_end(bucket)
                self._hits += 1
        (self._m_hits if decision is not None else self._m_misses).inc()
        return decision

    def put(self, decision: TunerDecision) -> TunerDecision:
        """Insert a decision (first writer wins, as with the plan cache)."""
        with self._lock:
            existing = self._decisions.get(decision.bucket)
            if existing is not None:
                self._decisions.move_to_end(decision.bucket)
                return existing
            self._decisions[decision.bucket] = decision
            while len(self._decisions) > self._maxsize:
                self._decisions.popitem(last=False)
            return decision

    def clear(self) -> None:
        """Drop all decisions and reset counters."""
        with self._lock:
            self._decisions.clear()
            self._hits = self._misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._decisions)

    @property
    def hits(self) -> int:
        """Lookups served from the cache."""
        return self._hits

    @property
    def misses(self) -> int:
        """Lookups that required a fresh scoring run."""
        return self._misses


_DECISIONS = DecisionCache()


def get_decision_cache() -> DecisionCache:
    """The process-wide decision cache shared by the auto paths."""
    return _DECISIONS


def clear_decision_cache() -> None:
    """Empty the process-wide decision cache (tests and benchmarks)."""
    _DECISIONS.clear()


# ---------------------------------------------------------------------------
# Selection
# ---------------------------------------------------------------------------
def choose_format(
    profile: SparsityProfile, n_cols: int = 64, use_cache: bool = True
) -> TunerDecision:
    """Pick the best format configuration for a profiled operand.

    Parameters
    ----------
    profile:
        The operand's structural summary.
    n_cols:
        Dense-operand width the decision optimises for.
    use_cache:
        Consult/populate the process-wide :class:`DecisionCache`.

    Returns
    -------
    TunerDecision
        The candidates ranked by the calibrated cost model, cheapest first.
    """
    bucket = (*profile.bucket(), n_cols)
    if use_cache:
        cached = _DECISIONS.get(bucket)
        if cached is not None:
            return cached
    ranked = CostModel().rank(profile, enumerate_candidates(profile), n_cols)
    decision = TunerDecision(bucket=bucket, ranked=tuple(ranked), profile=profile)
    return _DECISIONS.put(decision) if use_cache else decision


def auto_format_with_decision(
    operand, n_cols: int = 64, use_cache: bool = True
) -> tuple[SparseFormat, TunerDecision]:
    """:func:`auto_format` plus the decision it was based on.

    The shared implementation behind :func:`auto_format` and the
    ``format="auto"`` API path (which records the decision as
    ``SparseEinsum.last_decision``).  Parameters as for
    :func:`auto_format`.
    """
    decision = choose_format(profile_operand(operand), n_cols, use_cache)
    candidate = decision.candidate
    if isinstance(operand, SparseFormat):
        if candidate.matches(operand):
            return operand, decision
        operand = operand.to_dense()
    return candidate.build(np.asarray(operand)), decision


def auto_format(operand, n_cols: int = 64, use_cache: bool = True) -> SparseFormat:
    """Convert an operand to the format the tuner picks for it.

    Parameters
    ----------
    operand:
        A 2-D dense :class:`numpy.ndarray` or any
        :class:`~repro.formats.base.SparseFormat` instance (which is
        re-formatted when the tuner prefers a different configuration, and
        returned unchanged when it already matches the choice).
    n_cols:
        Dense-operand width the decision optimises for (``n`` of the SpMM
        the operand will participate in).
    use_cache:
        Consult/populate the process-wide decision cache.

    Returns
    -------
    SparseFormat
        The operand in the winning format.

    Examples
    --------
    >>> from repro.tuner import auto_format
    >>> A = np.where(np.random.rand(64, 64) < 0.05, 1.0, 0.0)
    >>> fmt = auto_format(A)
    >>> fmt.fixed_length
    True
    """
    return auto_format_with_decision(operand, n_cols=n_cols, use_cache=use_cache)[0]
