"""Wall-clock timing: the Table 3 compile-time stopwatch plus the latency
statistics (percentiles) used by the serving runtime's reports."""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Sequence

#: Latency samples a :class:`LatencyRecorder` keeps: the most recent ones.
MAX_SAMPLES = 65_536


class Timer:
    """Context-manager stopwatch.

    Example
    -------
    >>> with Timer() as t:
    ...     sum(range(1000))
    >>> t.elapsed >= 0.0
    True
    """

    def __init__(self) -> None:
        self.start: float | None = None
        self.elapsed: float = 0.0

    def __enter__(self) -> "Timer":
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        assert self.start is not None
        self.elapsed = time.perf_counter() - self.start

    @property
    def elapsed_ms(self) -> float:
        """Elapsed time in milliseconds."""
        return self.elapsed * 1e3


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) with linear interpolation.

    Matches ``numpy.percentile``'s default behaviour but works on plain
    Python lists without an array round-trip; returns 0.0 for an empty
    sample set so latency reports degrade gracefully.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile q must be in [0, 100], got {q}")
    values = sorted(samples)
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    rank = (len(values) - 1) * (q / 100.0)
    low = int(rank)
    high = min(low + 1, len(values) - 1)
    fraction = rank - low
    return float(values[low] * (1.0 - fraction) + values[high] * fraction)


@dataclass(frozen=True)
class LatencySummary:
    """The canonical latency report: p50/p95/p99/mean/max over a window.

    Every place the repository reports latency percentiles — the serving
    report, the benchmark JSON — builds one of these through
    :func:`summarize`, so the percentile method (and the set of reported
    quantiles) is defined exactly once.
    """

    count: int = 0
    p50_ms: float = 0.0
    p95_ms: float = 0.0
    p99_ms: float = 0.0
    mean_ms: float = 0.0
    max_ms: float = 0.0


def summarize(samples: Sequence[float]) -> LatencySummary:
    """Summarize latency samples (milliseconds) into a :class:`LatencySummary`.

    One sort serves all three percentiles; an empty sample set yields an
    all-zero summary so idle-window reports degrade gracefully.

    Parameters
    ----------
    samples:
        Per-request latencies in milliseconds, any order.
    """
    values = sorted(float(sample) for sample in samples)
    if not values:
        return LatencySummary()
    return LatencySummary(
        count=len(values),
        p50_ms=percentile(values, 50.0),
        p95_ms=percentile(values, 95.0),
        p99_ms=percentile(values, 99.0),
        mean_ms=sum(values) / len(values),
        max_ms=values[-1],
    )


class LatencyRecorder:
    """Thread-safe collector of per-request latencies (milliseconds).

    The serving runtime records one sample per completed request and
    reports p50/p95/p99 through :func:`summarize`.  Only the most recent
    :data:`MAX_SAMPLES` are kept, so a server that is never reset stays
    bounded: every statistic is over the last ``MAX_SAMPLES`` requests of
    the window (request *counts* are kept elsewhere and stay exact).
    """

    def __init__(self) -> None:
        self._samples: deque[float] = deque(maxlen=MAX_SAMPLES)
        self._lock = threading.Lock()

    def record(self, latency_ms: float) -> None:
        with self._lock:
            self._samples.append(float(latency_ms))

    @property
    def count(self) -> int:
        with self._lock:
            return len(self._samples)

    def samples(self) -> list[float]:
        with self._lock:
            return list(self._samples)

    def reset(self) -> None:
        with self._lock:
            self._samples.clear()

    def summary(self) -> LatencySummary:
        """The canonical p50/p95/p99/mean/max summary of the samples so far."""
        return summarize(self.samples())

    def p50_ms(self) -> float:
        return percentile(self.samples(), 50.0)

    def p95_ms(self) -> float:
        return percentile(self.samples(), 95.0)

    def p99_ms(self) -> float:
        return percentile(self.samples(), 99.0)

    def mean_ms(self) -> float:
        samples = self.samples()
        return sum(samples) / len(samples) if samples else 0.0

    def max_ms(self) -> float:
        samples = self.samples()
        return max(samples) if samples else 0.0
