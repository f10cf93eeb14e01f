"""One bounded memo, and the process-wide plan cache built on it.

:class:`BoundedMemo` is the library's one counted LRU.  What is derived from
an operand lives with the operand; every other memo is a ``BoundedMemo`` —
the plan cache, the tuner's decisions, a ``SparseEinsum``'s rewrites and
per-operand bindings, the kernel classes' bindings and the serving
executor's tables — and counts into one labelled family,
``repro_memo_{hits,misses,evictions}_total{memo}``, so a working set past
a bound shows on ``/metrics`` as evictions and not only as latency.

Compilation (parse → validate → plan → specialize) dominates a one-shot
``insum()`` call, so :func:`get_plan_cache` is one process-wide memo of
compiled kernels keyed by everything that can change the generated code:
the expression, the backend and its configuration, and every bound
tensor's shape **and** dtype.  This module imports only the standard
library and :mod:`repro.obs.metrics`, so ``repro.core.insum.api`` imports
it without cycles.
"""

from __future__ import annotations

import functools
import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable

from repro.obs.metrics import get_registry

#: The bound of a memo constructed without one.
MAXSIZE = 256


@dataclass(frozen=True)
class MemoStats:
    """Immutable snapshot of one memo's counters (monotonic between clears):
    diff two with :meth:`since` to measure one workload's window."""

    hits: int
    misses: int
    evictions: int
    size: int
    maxsize: int
    name: str

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the memo (0.0 when unused)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def since(self, earlier: "MemoStats") -> "MemoStats":
        """Counter deltas relative to an earlier snapshot (same memo)."""
        return MemoStats(
            self.hits - earlier.hits,
            self.misses - earlier.misses,
            self.evictions - earlier.evictions,
            self.size,
            self.maxsize,
            self.name,
        )

    def summary(self) -> str:
        """One-line human-readable report of the counters."""
        return (
            f"{self.name}: {self.size}/{self.maxsize} entries, "
            f"{self.hits} hits / {self.misses} misses "
            f"(hit rate {self.hit_rate:.1%}), {self.evictions} evictions"
        )


@dataclass(frozen=True)
class CachedPlan:
    """One plan-cache entry: the plan and the kernel compiled from it (which
    carries its :class:`~repro.engine.specialize.SpecializedKernel`)."""

    plan: Any
    compiled: Any


@functools.cache
def _counters(name: str) -> tuple:
    """The registry children of memo ``name``: hits, misses, evictions."""
    return tuple(
        get_registry().counter(f"repro_memo_{what}_total", f"Memo {what}, by memo.", memo=name)
        for what in ("hits", "misses", "evictions")
    )


#: Every live memo, so a forked child re-arms their locks in one call.
_MEMOS: "weakref.WeakSet[BoundedMemo]" = weakref.WeakSet()


class BoundedMemo:
    """A thread-safe LRU memo with counted hits, misses and evictions.

    A hit promotes its entry; an insert beyond ``maxsize`` (:data:`MAXSIZE`
    when omitted) evicts the least recently used.  :meth:`put` is first
    writer wins, so threads that build one value concurrently converge on
    one object.  Values are never ``None`` (:meth:`get`'s miss).  ``name``
    labels the registry counters: memos of one name count together.
    """

    def __init__(self, name: str, maxsize: int | None = None):
        self.name = name
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        self._lock = threading.Lock()
        #: Counted since the last :meth:`clear`.
        self.hits = self.misses = self.evictions = 0
        self._m_hits, self._m_misses, self._m_evictions = _counters(name)
        self.resize(MAXSIZE if maxsize is None else maxsize)
        _MEMOS.add(self)

    def get(self, key: Hashable) -> Any:
        """The value under ``key``, or ``None``; counts a hit or a miss."""
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self.misses += 1
            else:
                self._entries.move_to_end(key)
                self.hits += 1
        (self._m_misses if value is None else self._m_hits).inc()
        return value

    def put(self, key: Hashable, value: Any) -> Any:
        """Keep ``value`` under ``key`` and return it — or the value another
        thread kept there first — evicting beyond ``maxsize``."""
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None:
                self._entries.move_to_end(key)
                return existing
            self._entries[key] = value
            self._evict()
        return value

    def _evict(self) -> None:
        evicted = max(0, len(self._entries) - self.maxsize)
        for _ in range(evicted):
            self._entries.popitem(last=False)
        if evicted:
            self.evictions += evicted
            self._m_evictions.inc(evicted)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def keys(self) -> list:
        """The keys, least recently used first."""
        with self._lock:
            return list(self._entries)

    def values(self) -> list:
        """The values, least recently used first."""
        with self._lock:
            return list(self._entries.values())

    def resize(self, maxsize: int) -> None:
        """Change capacity, evicting LRU entries if the memo shrank."""
        if maxsize < 1:
            raise ValueError(f"memo maxsize must be >= 1, got {maxsize}")
        with self._lock:
            self.maxsize = int(maxsize)
            self._evict()

    def clear(self, reset_stats: bool = True) -> None:
        """Drop all entries and, unless told not to, zero the counters."""
        with self._lock:
            self._entries.clear()
            if reset_stats:
                self.hits = self.misses = self.evictions = 0

    def stats(self) -> MemoStats:
        """An immutable snapshot of the current counters and occupancy."""
        with self._lock:
            return MemoStats(
                self.hits, self.misses, self.evictions, len(self), self.maxsize, self.name
            )

    def __repr__(self) -> str:
        return f"BoundedMemo({self.stats().summary()})"


def _reinit_after_fork() -> None:
    """Re-arm the lock of every live memo in a forked child (see cluster.worker)."""
    for memo in list(_MEMOS):
        memo._lock = threading.Lock()


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
        A hashable key for the plan cache.
    """
    return (expression, backend, config or _default_config(), signature)


@functools.cache
def _default_config() -> Any:
    # Imported on first use: this module stays importable without the
    # compiler packages (see the module docstring).
    from repro.core.inductor.config import InductorConfig

    return InductorConfig()


# ---------------------------------------------------------------------------
# The process-wide plan cache
# ---------------------------------------------------------------------------
_GLOBAL_CACHE = BoundedMemo("plan_cache")


def get_plan_cache() -> BoundedMemo:
    """The process-wide plan cache shared by every operator."""
    return _GLOBAL_CACHE


def configure_plan_cache(maxsize: int) -> BoundedMemo:
    """Resize the process-wide cache (keeping current entries when possible)."""
    _GLOBAL_CACHE.resize(maxsize)
    return _GLOBAL_CACHE


def clear_plan_cache(reset_stats: bool = True) -> None:
    """Empty the process-wide cache (used by tests and benchmarks)."""
    _GLOBAL_CACHE.clear(reset_stats=reset_stats)
