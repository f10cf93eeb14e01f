"""repro.engine — plan-time specialization for compiled indirect Einsums.

The compiler stack (``repro.core``) decides *what* to execute; this
package makes the execution itself cheap.  It compiles each
:class:`~repro.core.insum.planner.InsumPlan` into a flat list of prebuilt
NumPy steps with every value-independent decision made at compile time —
and, for every sparse kernel of the paper on a machine with a C compiler,
into the one fused loop nest the paper's backend generates — and supplies
the identity-keyed caches that let a serving process stop re-deriving
per-operand artefacts on every request:

* :mod:`repro.engine.specialize` — :class:`SpecializedKernel`, the one
  executor of a fused schedule (cache-sized windows, gather, pointwise
  folds plus one ``np.matmul`` that also sums duplicate targets where one
  rule allows, segment-sum scatter elsewhere), compiled per plan;
* :mod:`repro.engine.emit` — the second emitter behind that lowering: a
  plan as bounds-checked C (dense reductions in a register tile), once per machine into
  ``~/.cache/repro/kernels`` and called outside the GIL
  (``python -m repro.engine`` builds them ahead of time);
* :mod:`repro.engine.paths` — process-wide ``np.einsum_path`` memo (the
  unfused ``einsum`` operator, and the fused executor's build-time fallback);
* :mod:`repro.engine.segment` — the run structure of a scatter index;
  ``np.add.at`` replaced by disjoint-row fancy ``+=`` or bucketed slab
  segment sums;
* :mod:`repro.engine.fingerprint` — identity tokens for live arrays,
  pattern fingerprints for formats, and the derived-artefact cache;
* :mod:`repro.engine.coalesce` — widening helpers behind the server's
  same-plan request coalescing.

See ``docs/PERFORMANCE.md`` for what is specialized and which committed
numbers (``benchmarks/layers`` and its record, ``BENCH_layers.json`` at
the repository root) track it.
"""

from repro.engine.coalesce import (
    CoalesceTicket,
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
    cached_einsum,
    cached_einsum_path,
    clear_path_cache,
    path_cache_stats,
)
from repro.engine.segment import ScatterPlan, plan_scatter, segment_add
from repro.engine.specialize import SpecializedKernel, specialize_plan

__all__ = [
    "CoalesceTicket",
    "ScatterPlan",
    "SpecializedKernel",
    "array_token",
    "cached_einsum",
    "cached_einsum_path",
    "clear_derived_cache",
    "clear_path_cache",
    "coalesce_key",
    "derived",
    "derived_cache_size",
    "pattern_fingerprint",
    "path_cache_stats",
    "plan_scatter",
    "segment_add",
    "specialize_plan",
    "split_results",
    "stack_group",
    "widen_expression",
]
