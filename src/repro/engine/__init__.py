"""repro.engine — plan-time specialization for compiled indirect Einsums.

``repro.core`` decides *what* to execute; this package makes it cheap.  Each
:class:`~repro.core.insum.planner.InsumPlan` compiles into a flat list of
prebuilt NumPy steps, every value-independent decision made at compile time,
and — for every sparse kernel of the paper, where there is a C compiler — into
the one fused loop nest the paper's backend generates; identity-keyed caches
spare a serving process re-deriving per-operand artefacts on every request:

* :mod:`repro.engine.specialize` — :class:`SpecializedKernel`, the one executor
  of every plan (cache-sized windows, gather, pointwise folds plus one
  ``np.matmul`` that may also sum duplicate targets, segment-sum scatter);
* :mod:`repro.engine.emit` — the second emitter: a plan as bounds-checked C
  (dense reductions in a register tile), built once per machine into
  ``~/.cache/repro/kernels`` (``python -m repro.engine`` builds them ahead of
  time) and called outside the GIL;
* :mod:`repro.engine.paths` — the process-wide ``np.einsum_path`` memo;
* :mod:`repro.engine.segment` — the run structure of a scatter index: disjoint
  rows' fancy ``+=`` or bucketed slab segment sums in place of ``np.add.at``;
* :mod:`repro.engine.fingerprint` — identity tokens for live arrays, pattern
  fingerprints for formats, and the derived-artefact cache;
* :mod:`repro.engine.coalesce` — widening for same-plan request coalescing.

``docs/PERFORMANCE.md`` says what is specialized and which numbers track it
(``benchmarks/layers``, and its record ``BENCH_layers.json``).
"""

from repro.engine.coalesce import (
    coalesce_key,
    split_results,
    stack_group,
    widen_expression,
)
from repro.engine.fingerprint import (
    array_token,
    clear_derived_cache,
    derived,
    derived_cache_size,
    pattern_fingerprint,
)
from repro.engine.paths import (
    cached_einsum_path,
    clear_path_cache,
    path_cache_stats,
)
from repro.engine.segment import plan_scatter, segment_add
from repro.engine.specialize import SpecializedKernel, materialize_plan, specialize_plan

__all__ = [
    "SpecializedKernel",
    "array_token",
    "cached_einsum_path",
    "clear_derived_cache",
    "clear_path_cache",
    "coalesce_key",
    "derived",
    "derived_cache_size",
    "materialize_plan",
    "pattern_fingerprint",
    "path_cache_stats",
    "plan_scatter",
    "segment_add",
    "specialize_plan",
    "split_results",
    "stack_group",
    "widen_expression",
]
