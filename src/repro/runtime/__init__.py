"""The serving runtime: plan caching, batching, and a front door.

This package turns the Insum compiler into a serving engine (the
ROADMAP's "production-scale" direction):

* :mod:`repro.runtime.plan_cache` — :class:`BoundedMemo`, the one counted
  LRU, and on it the process-wide cache of compiled kernels, consulted by
  every operator and one-shot helper.
* :mod:`repro.runtime.stacked` — :class:`StackedSparse`, a DSBCOO-style
  batch of same-pattern sparse operands executed as one widened Einsum.
* :mod:`repro.runtime.request` — :class:`Request` / :class:`InsumResult`,
  the one record a request travels as and the outcome it resolves to.
* :mod:`repro.runtime.server` — :class:`InsumServer`, request queuing
  over reusable per-expression operators, one call per request.
* :mod:`repro.runtime.stats` — the one home of serving accounting:
  :class:`ServeStats`, the report every tier returns, and
  :class:`ServingWindow`, the counter store every tier embeds.
"""

from repro.runtime.plan_cache import (
    BoundedMemo,
    CachedPlan,
    MemoStats,
    clear_plan_cache,
    configure_plan_cache,
    get_plan_cache,
    plan_key,
)
from repro.runtime.request import InsumResult, Request
from repro.runtime.server import InsumServer
from repro.runtime.stacked import StackedSparse
from repro.runtime.stats import ServeStats

__all__ = [
    "BoundedMemo",
    "CachedPlan",
    "MemoStats",
    "Request",
    "clear_plan_cache",
    "configure_plan_cache",
    "get_plan_cache",
    "plan_key",
    "InsumResult",
    "InsumServer",
    "StackedSparse",
    "ServeStats",
]
