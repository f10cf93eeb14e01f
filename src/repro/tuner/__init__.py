"""repro.tuner: format selection by the Section 4.2 rule.

The paper's pipeline covers structured SpMM, unstructured SpMM, sparse
convolution, and equivariant tensor products with one compiler — but the
caller still hand-picks among seven storage formats.  This package closes
that gap without timing anything, as the paper picks GroupCOO's group size
in closed form:

1. :mod:`~repro.tuner.profile` extracts a :class:`SparsityProfile` from
   any operand (density, row-occupancy histogram, block-alignment scores,
   the Section 4.2 group-size estimate);
2. :mod:`~repro.tuner.auto` applies one rule to it — ELL when it pads
   nothing, the best-filled block shape on block-structured data, GroupCOO
   otherwise, each grouped format at the Section 4.2 group size, and group
   size 1 where plans compile — exposed as :func:`auto_format` /
   :func:`choose_format` with a process-wide :class:`DecisionCache`, and as
   ``insum(..., format="auto")``;
3. :mod:`~repro.tuner.candidates` enumerates the configurations the rule
   picks among, which ``benchmarks/bench_tuner_adaptive.py`` times against
   its pick on seven regimes.

The answer is a format, group size included; the compiler lowers whatever
format it is given.  See ``docs/FORMATS.md`` for the rule and its
measurements.
"""

from repro.tuner.auto import (
    DecisionCache,
    TunerDecision,
    auto_format,
    choose_format,
    clear_decision_cache,
    get_decision_cache,
)
from repro.tuner.candidates import Candidate, enumerate_candidates
from repro.tuner.profile import (
    BlockProfile,
    SparsityProfile,
    profile_operand,
)

__all__ = [
    "auto_format",
    "choose_format",
    "Candidate",
    "enumerate_candidates",
    "BlockProfile",
    "SparsityProfile",
    "profile_operand",
    "DecisionCache",
    "TunerDecision",
    "get_decision_cache",
    "clear_decision_cache",
]
