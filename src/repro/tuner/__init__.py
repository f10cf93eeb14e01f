"""repro.tuner: cost-model-driven adaptive format selection.

The paper's pipeline covers structured SpMM, unstructured SpMM, sparse
convolution, and equivariant tensor products with one compiler — but the
caller still hand-picks among seven storage formats and a backend config.
This package closes that gap:

1. :mod:`~repro.tuner.profile` extracts a :class:`SparsityProfile` from
   any operand (density, row-occupancy histogram, block-alignment scores,
   the Section 4.2 group-size estimate);
2. :mod:`~repro.tuner.cost_model` scores candidate (format, parameters,
   schedule) triples with an analytical model whose per-operation costs
   are **calibrated** by :mod:`~repro.tuner.calibration` microbenchmarks
   (persistable as JSON via ``REPRO_TUNER_CALIBRATION``);
3. :mod:`~repro.tuner.auto` exposes :func:`auto_format` /
   :func:`choose_format` plus a process-wide :class:`DecisionCache`, and
   the public API accepts ``insum(..., format="auto")``: profile → rank →
   build, the model deciding alone — no candidate is built or timed to
   make the decision.

The answer is a format, group size included (Section 4.2); the compiler
lowers whatever format it is given.  See ``docs/FORMATS.md`` for the candidate-space specification and
``benchmarks/bench_tuner_adaptive.py`` for the seven-regime evaluation.
"""

from repro.tuner.auto import (
    DecisionCache,
    TunerDecision,
    auto_format,
    choose_format,
    clear_decision_cache,
    get_decision_cache,
)
from repro.tuner.calibration import (
    Calibration,
    get_calibration,
    run_microbenchmarks,
    set_calibration,
)
from repro.tuner.candidates import Candidate, ScoredCandidate, enumerate_candidates
from repro.tuner.cost_model import CostModel, TunerError
from repro.tuner.profile import (
    BlockProfile,
    SparsityProfile,
    profile_operand,
)

__all__ = [
    "auto_format",
    "choose_format",
    "Candidate",
    "ScoredCandidate",
    "enumerate_candidates",
    "CostModel",
    "TunerError",
    "Calibration",
    "get_calibration",
    "run_microbenchmarks",
    "set_calibration",
    "BlockProfile",
    "SparsityProfile",
    "profile_operand",
    "DecisionCache",
    "TunerDecision",
    "get_decision_cache",
    "clear_decision_cache",
]
