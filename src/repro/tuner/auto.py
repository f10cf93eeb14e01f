"""Automatic format selection: ``auto_format`` and the decision cache.

The front door of the tuner:

* :func:`auto_format` — profile an operand, apply the rule, and return the
  operand built in the format it names.
* :func:`choose_format` — the decision itself, made from the profile alone as
  the paper's Section 4.2 picks a group size: in closed form, nothing built or
  timed.  In order:

  1. **ELL** when it pads nothing (``rows * row_max == nnz``);
  2. **block-structured data** (:meth:`SparsityProfile.best_block_shape`)
     gets that block shape as BlockGroupCOO, its group size
     :func:`~repro.formats.group_size.select_group_size` over the block-row
     occupancy — BlockCOO when that is 1;
  3. everything else gets GroupCOO with ``select_group_size`` over the row
     occupancy — COO when that is 1;
  4. where plans compile (:func:`repro.engine.emit.compiles`) the group size
     is 1: the emitted loop sums a run of one row in registers, so grouping
     buys nothing there.

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

from repro.engine import emit
from repro.formats.base import SparseFormat
from repro.formats.group_size import select_group_size
from repro.obs.metrics import get_registry
from repro.tuner.candidates import Candidate
from repro.tuner.profile import SparsityProfile, profile_operand


@dataclass(frozen=True)
class TunerDecision:
    """Outcome of one format-selection run.

    Attributes
    ----------
    bucket:
        The profile bucket the decision applies to, and the width it was
        made for.
    candidate:
        The chosen format configuration.
    reason:
        Which clause of the rule chose it, in one line, e.g.
        ``GroupCOO(g=4): §4.2 over 512 rows``.
    profile:
        The profile the rule read (the *first* operand of the bucket when
        the decision came from the cache).
    """

    bucket: tuple
    candidate: Candidate
    reason: str
    profile: SparsityProfile | None = field(default=None, compare=False, repr=False)

    def describe(self) -> str:
        """The decision and why, in one line."""
        return f"tuner decision: {self.reason}"


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
        """Lookups that ran the rule."""
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
def _rule(profile: SparsityProfile) -> tuple[Candidate, str]:
    """The rule of the module docstring: a candidate and why."""
    rows = profile.shape[0]
    if profile.nnz and rows * profile.row_max == profile.nnz:
        return Candidate("ELL"), f"ELL: {rows} rows of {profile.row_max}, nothing padded"
    block_shape = profile.best_block_shape()
    stats = profile.blocks.get(block_shape)
    if emit.compiles():
        g, how = 1, "plans compile, so g=1"
    elif stats is None:
        g, how = select_group_size(profile.occupancy), f"§4.2 over {profile.nonempty_rows} rows"
    else:
        g, how = select_group_size(stats.occupancy), f"§4.2 over {stats.nonempty_rows} block rows"
    if stats is None:
        candidate = Candidate("GroupCOO", group_size=g) if g > 1 else Candidate("COO")
        return candidate, f"{candidate.describe()}: {how}"
    name = "BlockGroupCOO" if g > 1 else "BlockCOO"
    candidate = Candidate(name, group_size=g if g > 1 else None, block_shape=block_shape)
    return candidate, f"{candidate.describe()}: block fill {stats.fill:.2f}, {how}"


def choose_format(
    profile: SparsityProfile, n_cols: int = 64, use_cache: bool = True
) -> TunerDecision:
    """Pick the format configuration for a profiled operand.

    Parameters
    ----------
    profile:
        The operand's structural summary.
    n_cols:
        Dense-operand width; it keys the decision cache, and the rule does
        not read it.
    use_cache:
        Consult/populate the process-wide :class:`DecisionCache`.

    Returns
    -------
    TunerDecision
        The candidate the rule picks, and its reason.
    """
    bucket = (*profile.bucket(), n_cols)
    if use_cache:
        cached = _DECISIONS.get(bucket)
        if cached is not None:
            return cached
    candidate, reason = _rule(profile)
    decision = TunerDecision(bucket=bucket, candidate=candidate, reason=reason, profile=profile)
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
        Dense-operand width (``n`` of the SpMM the operand will
        participate in); it keys the decision cache.
    use_cache:
        Consult/populate the process-wide decision cache.

    Returns
    -------
    SparseFormat
        The operand in the format the rule picks.

    Examples
    --------
    >>> from repro.tuner import auto_format
    >>> A = np.where(np.random.rand(64, 64) < 0.05, 1.0, 0.0)
    >>> fmt = auto_format(A)
    >>> fmt.fixed_length
    True
    """
    return auto_format_with_decision(operand, n_cols=n_cols, use_cache=use_cache)[0]
