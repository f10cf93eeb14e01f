"""Automatic format selection: ``auto_format`` and the decision cache.

The front door of the tuner:

* :func:`auto_format` — profile an operand, score the candidate formats
  with the calibrated cost model, and return the operand converted to the
  winning format.
* :func:`choose_format` — the decision itself (profile → ranked
  candidates), with an optional *measure* mode that times the top
  candidates through the real compile-and-execute pipeline (including the
  backend's tile autotuner in :mod:`repro.core.inductor.autotune`) and
  picks by wall clock instead of by model.
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
from repro.tuner.cost_model import CostModel, TunerError
from repro.tuner.profile import SparsityProfile, profile_operand

#: How many model-ranked candidates the measure mode times empirically.
MEASURE_TOP_K = 3

#: In ``"auto"`` mode, when the runner-up's modelled cost is within this
#: factor of the winner's, the model is considered too close to call and
#: the top candidates are timed empirically (once per profile bucket —
#: the decision cache amortises the measurement).
AUTO_MEASURE_MARGIN = 1.25


@dataclass(frozen=True)
class TunerDecision:
    """Outcome of one format-selection run.

    Attributes
    ----------
    bucket:
        The profile bucket the decision applies to.
    chosen:
        The winning candidate with its modelled (and, in measure mode,
        measured) cost.
    ranked:
        Every scored candidate, cheapest-first.
    mode:
        ``"model"``, ``"auto"``, or ``"measure"``.
    profile:
        The profile the decision was scored against (the *first* operand
        of the bucket when the decision came from the cache).
    """

    bucket: tuple
    chosen: ScoredCandidate
    ranked: tuple[ScoredCandidate, ...]
    mode: str
    profile: SparsityProfile | None = field(default=None, compare=False, repr=False)

    @property
    def candidate(self) -> Candidate:
        """The winning format configuration."""
        return self.chosen.candidate

    def describe(self) -> str:
        """One line per candidate with modelled/measured costs."""
        lines = [f"tuner decision ({self.mode}): {self.candidate.describe()}"]
        for scored in self.ranked:
            mark = "->" if scored.candidate == self.candidate else "  "
            measured = (
                f"  measured {scored.measured_ms:8.4f} ms"
                if scored.measured_ms is not None
                else ""
            )
            lines.append(
                f"  {mark} {scored.candidate.describe():<24s} "
                f"modeled {scored.modeled_ms:8.4f} ms{measured}"
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
def _as_dense(operand) -> np.ndarray:
    """Dense view of an operand (identity for ndarrays)."""
    if isinstance(operand, SparseFormat):
        return operand.to_dense()
    return np.asarray(operand)


def _measure_candidates(
    candidates: list[Candidate], dense: np.ndarray, n_cols: int, rounds: int = 5
) -> tuple[dict[Candidate, float], dict[Candidate, SparseFormat]]:
    """Wall-clock milliseconds of one SpMM per candidate format, and the
    operand each candidate built.

    Each candidate compiles through the full pipeline (planner →
    Inductor-like backend, whose tile autotuner runs because the default
    config autotunes).  Warm executions are then timed **interleaved** —
    round-robin over the candidates, keeping each one's minimum — so CPU
    frequency ramp-up and other monotone drift hit every candidate
    equally instead of penalising whichever was timed first.
    """
    from repro.core.insum.api import SparseEinsum
    from repro.utils.timing import Timer

    rng = np.random.default_rng(0)
    dense_rhs = rng.standard_normal((dense.shape[1], n_cols))
    operators = []
    for candidate in candidates:
        operand = candidate.build(dense)
        op = SparseEinsum("C[m,n] += A[m,k] * B[k,n]")
        op(A=operand, B=dense_rhs)  # compile + warm up
        operators.append((candidate, op, operand))
    best: dict[Candidate, float] = {c: float("inf") for c in candidates}
    for _ in range(rounds):
        for candidate, op, operand in operators:
            with Timer() as timer:
                op(A=operand, B=dense_rhs)
            best[candidate] = min(best[candidate], timer.elapsed_ms)
    return best, {candidate: operand for candidate, _, operand in operators}


def choose_format(
    profile: SparsityProfile,
    n_cols: int = 64,
    mode: str = "auto",
    cost_model: CostModel | None = None,
    allow_blocks: bool = True,
    dense: np.ndarray | None = None,
    use_cache: bool = True,
) -> TunerDecision:
    """Pick the best format configuration for a profiled operand.

    Parameters
    ----------
    profile:
        The operand's structural summary.
    n_cols:
        Dense-operand width the decision optimises for.
    mode:
        ``"model"`` ranks purely with the calibrated cost model.
        ``"auto"`` (the default) ranks with the model and, when the top
        two candidates are within :data:`AUTO_MEASURE_MARGIN` of each
        other (too close for an analytical model to call — e.g.
        cache-locality effects the census cannot see), times the top
        :data:`MEASURE_TOP_K` candidates through the real pipeline.
        ``"measure"`` always times the top candidates and picks the
        fastest measured one.
    cost_model:
        Override the cost model (defaults to one on the process-wide
        calibration).
    allow_blocks:
        Permit block-format candidates.
    dense:
        Dense matrix to build candidates from (or a zero-argument callable
        producing it, resolved only if a measurement actually runs);
        required for ``mode="measure"`` and for the ``"auto"`` mode's
        too-close-to-call measurements.
    use_cache:
        Consult/populate the process-wide :class:`DecisionCache`.

    Returns
    -------
    TunerDecision
        The winning candidate plus the full ranking.
    """
    return _choose(profile, n_cols, mode, cost_model, allow_blocks, dense, use_cache)[0]


def _choose(
    profile: SparsityProfile,
    n_cols: int,
    mode: str,
    cost_model: CostModel | None,
    allow_blocks: bool,
    dense,
    use_cache: bool,
) -> tuple[TunerDecision, dict[Candidate, SparseFormat]]:
    """:func:`choose_format`, plus the operands a measurement in this call
    built (empty when none ran): the caller converting the operand takes the
    winner's from there instead of building it again."""
    if mode not in ("model", "auto", "measure"):
        raise TunerError(f"unknown tune mode {mode!r}; use 'model', 'auto', or 'measure'")
    bucket = (*profile.bucket(), n_cols, mode)
    if use_cache:
        cached = _DECISIONS.get(bucket)
        if cached is not None:
            return cached, {}

    model = cost_model if cost_model is not None else CostModel()
    ranked = model.rank(profile, enumerate_candidates(profile, allow_blocks=allow_blocks), n_cols)

    if mode == "measure" and dense is None:
        raise TunerError("tune='measure' needs the operand (dense) to time candidates")
    should_measure = mode == "measure" or (
        mode == "auto"
        and dense is not None
        and len(ranked) > 1
        and ranked[1].modeled_ms < ranked[0].modeled_ms * AUTO_MEASURE_MARGIN
    )
    built: dict[Candidate, SparseFormat] = {}
    if should_measure:
        dense = dense() if callable(dense) else dense
        timings, built = _measure_candidates(
            [scored.candidate for scored in ranked[:MEASURE_TOP_K]], dense, n_cols
        )
        measured = [
            ScoredCandidate(
                candidate=scored.candidate,
                modeled_ms=scored.modeled_ms,
                measured_ms=timings[scored.candidate],
            )
            for scored in ranked[:MEASURE_TOP_K]
        ]
        measured.sort(key=lambda s: s.measured_ms or float("inf"))
        ranked = measured + ranked[MEASURE_TOP_K:]

    decision = TunerDecision(
        bucket=bucket, chosen=ranked[0], ranked=tuple(ranked), mode=mode, profile=profile
    )
    if use_cache:
        decision = _DECISIONS.put(decision)
    return decision, built


def auto_format_with_decision(
    operand,
    n_cols: int = 64,
    tune: str = "auto",
    cost_model: CostModel | None = None,
    use_cache: bool = True,
) -> tuple[SparseFormat, TunerDecision]:
    """:func:`auto_format` plus the decision it was based on.

    The shared implementation behind :func:`auto_format` and the
    ``format="auto"`` API path (which also needs the decision's bucket and
    candidate for plan-cache keying and schedule hints).  Parameters as
    for :func:`auto_format`.
    """
    profile = profile_operand(operand)
    # A thunk so model-only (or cache-hit) decisions never densify.
    dense = (
        np.asarray(operand)
        if not isinstance(operand, SparseFormat)
        else (lambda: _as_dense(operand))
    )
    decision, built = _choose(
        profile, n_cols, tune, cost_model, allow_blocks=True, dense=dense, use_cache=use_cache
    )
    candidate = decision.candidate
    if isinstance(operand, SparseFormat) and candidate.matches(operand):
        return operand, decision
    if candidate in built:  # measured in this call: that build is the operand
        return built[candidate], decision
    return candidate.build(dense() if callable(dense) else dense), decision


def auto_format(
    operand,
    n_cols: int = 64,
    tune: str = "auto",
    cost_model: CostModel | None = None,
    use_cache: bool = True,
) -> SparseFormat:
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
    tune:
        ``"model"`` for the pure cost model, ``"auto"`` (default) for the
        model plus too-close-to-call measurements, ``"measure"`` for
        empirical timing of the top candidates.
    cost_model:
        Optional cost-model override.
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
    formatted, _ = auto_format_with_decision(
        operand, n_cols=n_cols, tune=tune, cost_model=cost_model, use_cache=use_cache
    )
    return formatted
