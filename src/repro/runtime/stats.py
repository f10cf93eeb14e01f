"""Serving accounting: :class:`ServeStats`, the one report ``stats()`` returns
on every tier, and :class:`ServingWindow`, the one counter store behind it."""

from __future__ import annotations

import threading
from dataclasses import asdict, dataclass

from repro.obs.metrics import DEFAULT_LATENCY_BUCKETS_MS, DEFAULT_SIZE_BUCKETS, get_registry
from repro.runtime.plan_cache import get_plan_cache
from repro.utils.timing import LatencyRecorder

#: The counters that live where requests execute.  A cluster worker attaches
#: their cumulative values, in this order, to every response it sends.
INTERIOR = ("cache_hits", "cache_misses", "coalesced_requests", "coalesced_batches")

_OUTCOMES = ("completed", "failed", "cancelled")

#: Window counter -> (registry family, help) of its write-through child.
_EVENTS = {
    "coalesced_requests": (
        "repro_coalesced_requests_total",
        "Requests served through a widened (stacked) batch.",
    ),
    "coalesced_batches": ("repro_coalesced_batches_total", "Widened (stacked) batches executed."),
    "requeued": ("repro_requeued_total", "Requests redispatched after losing their worker."),
    "restarts": (
        "repro_worker_restarts_total",
        "Worker processes replaced by the health monitor.",
    ),
}


@dataclass(frozen=True)
class ServeStats:
    """One immutable report over a serving window, the same on every tier.

    Latency fields are end-to-end (submission to completion) as measured by
    the tier that owns the request lifecycle, over the window's most recent
    :data:`~repro.utils.timing.MAX_SAMPLES` requests; counts are exact.
    ``rejected`` / ``requeued`` / ``restarts`` count the cluster's admission
    and failure machinery and are zero elsewhere.  ``per_worker`` is the
    cluster's drill-down: one report per worker slot (completions, cache and
    coalescing counters; no latencies — those are measured at the parent).
    """

    backend: str
    workers: int
    completed: int
    failed: int = 0
    wall_seconds: float = 0.0
    p50_latency_ms: float = 0.0
    p95_latency_ms: float = 0.0
    mean_latency_ms: float = 0.0
    max_latency_ms: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    coalesced_requests: int = 0
    coalesced_batches: int = 0
    rejected: int = 0
    requeued: int = 0
    restarts: int = 0
    per_worker: tuple["ServeStats", ...] = ()
    cancelled: int = 0
    p99_latency_ms: float = 0.0

    @property
    def throughput_rps(self) -> float:
        """Completed requests per second of wall-clock serving time."""
        return self.completed / self.wall_seconds if self.wall_seconds > 0 else 0.0

    @property
    def submitted(self) -> int:
        """Every request with a terminal outcome: completed+failed+cancelled."""
        return self.completed + self.failed + self.cancelled

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of requests served without compiling (0.0 when idle).

        Coalesced requests beyond the first of each batch never perform a
        plan-cache lookup at all — the batch compiles (or hits) once — so
        they count as lookup-free hits alongside the cache's own hits.
        """
        free = max(0, self.coalesced_requests - self.coalesced_batches)
        lookups = self.cache_hits + self.cache_misses + free
        return (self.cache_hits + free) / lookups if lookups else 0.0

    @property
    def coalesce_rate(self) -> float:
        """Fraction of completed requests served via coalesced batches."""
        return self.coalesced_requests / self.completed if self.completed else 0.0

    def summary(self) -> str:
        """Multi-line human-readable report (throughput, latency, cache)."""
        lines = [
            f"backend    : {self.backend} ({self.workers} workers)",
            f"requests   : {self.completed} completed, {self.failed} failed, "
            f"{self.cancelled} cancelled "
            f"in {self.wall_seconds:.3f}s ({self.throughput_rps:.1f} req/s)",
            f"latency    : p50 {self.p50_latency_ms:.3f} ms, "
            f"p95 {self.p95_latency_ms:.3f} ms, "
            f"p99 {self.p99_latency_ms:.3f} ms, "
            f"mean {self.mean_latency_ms:.3f} ms, "
            f"max {self.max_latency_ms:.3f} ms",
            f"plan cache : {self.cache_hits} hits / {self.cache_misses} misses "
            f"(hit rate {self.cache_hit_rate:.1%})",
            f"coalescing : {self.coalesced_requests} requests in "
            f"{self.coalesced_batches} batches ({self.coalesce_rate:.1%} of requests)",
        ]
        if self.backend == "cluster":
            lines.append(
                f"cluster    : {self.rejected} rejected, {self.requeued} requeued, "
                f"{self.restarts} restarts"
            )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """A JSON-serializable view (the ops endpoint's ``/statsz`` body)."""
        payload = asdict(self)  # per_worker included: asdict recurses into the tuple
        payload["throughput_rps"] = self.throughput_rps
        payload["cache_hit_rate"] = self.cache_hit_rate
        payload["coalesce_rate"] = self.coalesce_rate
        payload["submitted"] = self.submitted
        return payload


class ServingWindow:
    """Thread-safe bookkeeping of one tier's measurement window.

    ``InsumServer``, the inline backend and ``ClusterServer`` each embed
    one, so what counts, how the wall clock is bounded and what ``reset``
    clears are decided here and nowhere else.  Each counter is incremented
    at one call site, which updates the window's view and writes through to
    its monotonic child in the metrics registry.  The window is the store
    (registry children are shared by every instance of a tier in the
    process, and exact percentiles need the samples), ``/metrics`` its copy.

    Parameters
    ----------
    tier:
        The report's ``backend`` and the ``backend`` label on this window's
        ``repro_requests_total`` / ``repro_request_latency_ms`` children.
    workers:
        The parallelism the tier built, reported as ``ServeStats.workers``.
    """

    def __init__(self, tier: str, workers: int = 1) -> None:
        self.tier = tier
        self.workers = workers
        self._lock = threading.Lock()
        self._latencies = LatencyRecorder()
        registry = get_registry()
        self._children = {
            outcome: registry.counter(
                "repro_requests_total",
                "Terminal request outcomes, by serving tier.",
                backend=tier,
                outcome=outcome,
            )
            for outcome in _OUTCOMES
        }
        for name, (family, text) in _EVENTS.items():
            self._children[name] = registry.counter(family, text)
        self._m_latency = registry.histogram(
            "repro_request_latency_ms",
            "End-to-end request latency in milliseconds, by serving tier.",
            buckets=DEFAULT_LATENCY_BUCKETS_MS,
            backend=tier,
        )
        self._m_batch_size = registry.histogram(
            "repro_coalesce_batch_size",
            "Requests per executed coalesced batch.",
            buckets=DEFAULT_SIZE_BUCKETS,
        )
        self.reset()

    def count(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to the counter ``name`` — an outcome or an event
        (``requeued``, ``restarts``, ``coalesced_*``) — and its registry child."""
        with self._lock:
            self._counts[name] += amount
        self._children[name].inc(amount)

    def open_at(self, timestamp: float) -> None:
        """Record the window's first submission time (later calls no-op)."""
        with self._lock:
            if self._started is None:
                self._started = timestamp

    def observe(self, ok: bool, latency_ms: float, finished_at: float) -> None:
        """Account one terminal request that ran, with its end-to-end latency
        and completion ``perf_counter`` stamp (a cancelled one is
        ``count("cancelled")``: it has no latency and moves no wall clock)."""
        self._latencies.record(latency_ms)
        with self._lock:
            self._finished = finished_at
        self.count("completed" if ok else "failed")
        self._m_latency.observe(latency_ms)

    def observe_batch(self, size: int) -> None:
        """Account one executed coalesced batch of ``size`` requests."""
        self.count("coalesced_batches")
        self.count("coalesced_requests", size)
        self._m_batch_size.observe(size)

    def counters(self) -> dict[str, int]:
        """Every integer of the window: outcomes, events, and the process-wide
        plan cache's hits and misses since the window opened.  Never touches
        the latency samples, which :meth:`snapshot` sorts."""
        cache = get_plan_cache().stats().since(self._cache_mark)
        with self._lock:
            return dict(self._counts, cache_hits=cache.hits, cache_misses=cache.misses)

    def snapshot(self, per_worker: tuple[ServeStats, ...] = (), rejected: int = 0) -> ServeStats:
        """The window as an immutable :class:`ServeStats`.

        Parameters
        ----------
        per_worker:
            The cluster's per-slot reports.  When given, the :data:`INTERIOR`
            counters are their sums: a cluster's requests execute in its
            worker processes, not under this process's plan cache.
        rejected:
            Submissions the tier's admission gate refused in the window.
        """
        counts = self.counters()
        if per_worker:
            counts.update({name: sum(getattr(w, name) for w in per_worker) for name in INTERIOR})
        latency = self._latencies.summary()
        with self._lock:
            wall = 0.0
            if self._started is not None and self._finished is not None:
                wall = max(0.0, self._finished - self._started)
        return ServeStats(
            backend=self.tier,
            workers=self.workers,
            wall_seconds=wall,
            p50_latency_ms=latency.p50_ms,
            p95_latency_ms=latency.p95_ms,
            p99_latency_ms=latency.p99_ms,
            mean_latency_ms=latency.mean_ms,
            max_latency_ms=latency.max_ms,
            rejected=rejected,
            per_worker=per_worker,
            **counts,
        )

    def reset(self) -> None:
        """Start a fresh window (counters, latencies, wall clock, cache mark).

        Only the window's own view resets — the registry children it writes
        through to are monotonic by contract and keep counting.
        """
        with self._lock:
            self._counts = dict.fromkeys((*_OUTCOMES, *_EVENTS), 0)
            self._started = self._finished = None  # perf_counter stamps
        self._latencies.reset()
        self._cache_mark = get_plan_cache().stats()
