"""Process-wide LRU cache of compiled Insum plans.

Compilation (parse → validate → plan → specialize) is the dominant cost
of a one-shot ``insum()`` / ``sparse_einsum()`` call: the NumPy execution
of a small kernel takes microseconds while the compile pipeline takes
milliseconds.  The serving runtime therefore keeps
one process-wide cache of compiled kernels, keyed by everything that can
change the generated code:

* the Einsum expression string,
* the backend ("inductor" or "eager") and its configuration, and
* the *signature* of the bound tensors — every operand's shape **and**
  dtype (two calls with identical shapes but different dtypes must not
  share one compiled kernel).

:class:`Insum`, and through it the one-shot helpers and
:class:`SparseEinsum`, route every compilation through
:func:`get_plan_cache`, so repeated one-shot calls stop recompiling and a
server can report a meaningful hit rate.

This module deliberately has no dependency on the compiler packages so it
can be imported from ``repro.core.insum.api`` without cycles
(:mod:`repro.obs.metrics` is stdlib-only, so the registry counters the
cache dual-writes keep that property).
"""

from __future__ import annotations

import functools
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable

from repro.obs.metrics import get_registry


@dataclass(frozen=True)
class PlanCacheStats:
    """Immutable snapshot of the plan cache's counters.

    Counters (hits, misses, evictions) are monotonic over the cache's
    lifetime; take two snapshots and diff them with :meth:`since` to
    measure one workload's window, as :class:`~repro.runtime.server.InsumServer`
    does for its hit-rate report.
    """

    hits: int
    misses: int
    evictions: int
    size: int
    maxsize: int

    @property
    def lookups(self) -> int:
        """Total lookups observed (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when unused)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def since(self, earlier: "PlanCacheStats") -> "PlanCacheStats":
        """Counter deltas relative to an earlier snapshot (same cache)."""
        return PlanCacheStats(
            hits=self.hits - earlier.hits,
            misses=self.misses - earlier.misses,
            evictions=self.evictions - earlier.evictions,
            size=self.size,
            maxsize=self.maxsize,
        )

    def summary(self) -> str:
        """One-line human-readable report of the counters."""
        return (
            f"plan cache: {self.size}/{self.maxsize} entries, "
            f"{self.hits} hits / {self.misses} misses "
            f"(hit rate {self.hit_rate:.1%}), {self.evictions} evictions"
        )


@dataclass(frozen=True)
class CachedPlan:
    """One cache entry: the plan and the kernel compiled from it.

    An inductor ``compiled`` with a fused schedule carries its
    :class:`~repro.engine.specialize.SpecializedKernel`, so a cache hit
    hands back the fully compiled kernel — window schedule, step list and
    all.
    """

    plan: Any
    compiled: Any


class PlanCache:
    """A thread-safe LRU cache mapping plan keys to compiled kernels.

    Entries are promoted to most-recently-used on every hit; inserting
    beyond ``maxsize`` evicts the least-recently-used entry.  All three
    counters (hits, misses, evictions) are monotonic so callers can take
    snapshot deltas around a workload.
    """

    def __init__(self, maxsize: int = 256):
        if maxsize < 1:
            raise ValueError(f"plan cache maxsize must be >= 1, got {maxsize}")
        self._maxsize = int(maxsize)
        self._entries: OrderedDict[Hashable, CachedPlan] = OrderedDict()
        self._lock = threading.RLock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        registry = get_registry()
        self._m_hits = registry.counter(
            "repro_plan_cache_hits_total", "Plan-cache lookups served without compiling."
        )
        self._m_misses = registry.counter(
            "repro_plan_cache_misses_total", "Plan-cache lookups that required a compile."
        )
        self._m_evictions = registry.counter(
            "repro_plan_cache_evictions_total", "Plans evicted by the LRU bound."
        )

    # -- core operations ----------------------------------------------------
    def get(self, key: Hashable) -> CachedPlan | None:
        """Look up a compiled plan, counting a hit or a miss."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
            else:
                self._entries.move_to_end(key)
                self._hits += 1
        (self._m_hits if entry is not None else self._m_misses).inc()
        return entry

    def put(self, key: Hashable, entry: CachedPlan) -> CachedPlan:
        """Insert an entry, evicting the least-recently-used beyond maxsize.

        If another thread inserted the same key first, the earlier entry
        wins (so concurrent compiles of the same program converge on one
        kernel object).
        """
        evicted = 0
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None:
                self._entries.move_to_end(key)
                return existing
            self._entries[key] = entry
            while len(self._entries) > self._maxsize:
                self._entries.popitem(last=False)
                self._evictions += 1
                evicted += 1
        if evicted:
            self._m_evictions.inc(evicted)
        return entry

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # -- management ---------------------------------------------------------
    @property
    def maxsize(self) -> int:
        """Capacity: the entry count beyond which LRU eviction kicks in."""
        return self._maxsize

    def resize(self, maxsize: int) -> None:
        """Change capacity, evicting LRU entries if the cache shrank."""
        if maxsize < 1:
            raise ValueError(f"plan cache maxsize must be >= 1, got {maxsize}")
        evicted = 0
        with self._lock:
            self._maxsize = int(maxsize)
            while len(self._entries) > self._maxsize:
                self._entries.popitem(last=False)
                self._evictions += 1
                evicted += 1
        if evicted:
            self._m_evictions.inc(evicted)

    def clear(self, reset_stats: bool = False) -> None:
        """Drop all entries; optionally zero the counters as well."""
        with self._lock:
            self._entries.clear()
            if reset_stats:
                self._hits = self._misses = self._evictions = 0

    def stats(self) -> PlanCacheStats:
        """An immutable snapshot of the current counters and occupancy."""
        with self._lock:
            return PlanCacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                size=len(self._entries),
                maxsize=self._maxsize,
            )

    def __repr__(self) -> str:
        return f"PlanCache({self.stats().summary()})"


# ---------------------------------------------------------------------------
# Key construction
# ---------------------------------------------------------------------------
def plan_key(expression: str, backend: str, config: Any, signature: Hashable) -> tuple:
    """Build the canonical cache key for one compilation.

    The key holds what decides the executed kernel and nothing else: a
    ``format="auto"`` request keys on the format the tuner chose (through
    the rewritten expression and the signature), not on the sparsity
    regime it was chosen for.

    Parameters
    ----------
    expression:
        The indirect-Einsum expression string.
    backend:
        ``"inductor"`` or ``"eager"``.
    config:
        Backend configuration — a frozen ``InductorConfig`` of the three
        compiler switches, so equal configurations hash and compare equal.
        ``None`` means the default configuration and keys as it does.
    signature:
        Shape-and-dtype signature of every bound tensor.

    Returns
    -------
    tuple
        A hashable key for :class:`PlanCache`.
    """
    return (expression, backend, config or _default_config(), signature)


@functools.cache
def _default_config() -> Any:
    # Imported on first use: this module stays importable without the
    # compiler packages (see the module docstring).
    from repro.core.inductor.config import InductorConfig

    return InductorConfig()


# ---------------------------------------------------------------------------
# The process-wide cache
# ---------------------------------------------------------------------------
_GLOBAL_CACHE = PlanCache()
_GLOBAL_LOCK = threading.Lock()


def get_plan_cache() -> PlanCache:
    """The process-wide plan cache shared by every operator."""
    return _GLOBAL_CACHE


def configure_plan_cache(maxsize: int) -> PlanCache:
    """Resize the process-wide cache (keeping current entries when possible)."""
    with _GLOBAL_LOCK:
        _GLOBAL_CACHE.resize(maxsize)
        return _GLOBAL_CACHE


def clear_plan_cache(reset_stats: bool = True) -> None:
    """Empty the process-wide cache (used by tests and benchmarks)."""
    _GLOBAL_CACHE.clear(reset_stats=reset_stats)
