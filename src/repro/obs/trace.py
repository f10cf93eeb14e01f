"""Per-request tracing: where did this request spend its time?

A :class:`Trace` is minted when a request enters the serving stack
(:meth:`repro.serve.Session.submit`, or a tier's ``run_batch`` when
driven directly), carried through the tier that executes it, and
finalized into contiguous :class:`Span` records at completion time —
retrievable as :meth:`repro.serve.Future.trace`.

The design keeps the hot path to *stamps*: a named ``time.time()``
timestamp written into a per-trace dict (one dict store, ~100 ns).
Spans are only assembled from consecutive stamps when the request
completes, so they are non-overlapping by construction.  Wall-clock
(``time.time``) rather than ``perf_counter`` is used because cluster
traces merge stamps from two processes — same host, same clock — while
the latency *accounting* elsewhere stays on ``perf_counter``.

The trace rides on the request itself
(:attr:`repro.runtime.request.Request.trace`) from the session into
whichever backend accepts it.  In the cluster tier the parent ships only
the trace id in the request envelope; the worker re-creates a trace
under that id, stamps its own side, and ships the stamps and spans back
in the response envelope for the parent to merge.

Tracing is on by default (``REPRO_TRACE=0`` disables it); completed
traces are additionally *logged* (JSON, through :mod:`repro.obs.logs`)
at the sampling rate given by ``REPRO_TRACE_LOG_SAMPLE`` (default 0 —
never).
"""

from __future__ import annotations

import itertools
import os
import secrets
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Mapping

__all__ = ["Span", "Trace", "maybe_start", "set_enabled", "enabled", "maybe_log_trace"]

#: Environment variable disabling tracing entirely when set to ``0``.
TRACE_ENV = "REPRO_TRACE"
#: Environment variable: fraction of completed traces logged (0..1).
TRACE_LOG_SAMPLE_ENV = "REPRO_TRACE_LOG_SAMPLE"

_enabled = os.environ.get(TRACE_ENV, "1").strip().lower() not in ("0", "false", "no", "off")
_id_prefix = f"{os.getpid():x}-{secrets.token_hex(3)}"
_id_counter = itertools.count(1)


@dataclass(frozen=True)
class Span:
    """One named, closed interval of a request's lifetime.

    ``start``/``end`` are epoch seconds (``time.time``); ``meta`` carries
    span-specific context, e.g. the coalesce batch size on an ``execute``
    span.  Spans from one trace are non-overlapping: each is built
    between two consecutive lifecycle stamps.
    """

    name: str
    start: float
    end: float
    meta: Mapping[str, Any] = field(default_factory=dict)

    @property
    def duration_ms(self) -> float:
        """The span's length in milliseconds."""
        return max(0.0, (self.end - self.start) * 1e3)


class Trace:
    """One request's trace: an id, lifecycle stamps, and finalized spans.

    Thread-safe: stamps and spans may be written from the submitting
    thread, a worker thread, and a collector thread in turn (never
    concurrently for the same phase, but the lock makes the handoffs
    safe to read mid-flight).
    """

    __slots__ = ("trace_id", "_lock", "_stamps", "_spans")

    def __init__(self, trace_id: str | None = None):
        self.trace_id = trace_id if trace_id is not None else new_trace_id()
        self._lock = threading.Lock()
        self._stamps: dict[str, float] = {}
        self._spans: list[Span] = []

    # -- hot path -----------------------------------------------------------
    def stamp(self, name: str, at: float | None = None) -> float:
        """Record (or overwrite) the named lifecycle timestamp.

        Overwriting is deliberate: a request re-dispatched after a worker
        crash re-stamps its dispatch-side names, so the final spans
        describe the attempt that actually completed.
        """
        at = time.time() if at is None else at
        with self._lock:
            self._stamps[name] = at
        return at

    def stamp_of(self, name: str) -> float | None:
        """The named timestamp, or None if never stamped."""
        with self._lock:
            return self._stamps.get(name)

    # -- span assembly ------------------------------------------------------
    def add_span(self, name: str, start: float, end: float, **meta: Any) -> None:
        """Append one finalized span.

        Parameters
        ----------
        name:
            The span name (see docs/OBSERVABILITY.md for the glossary).
        start / end:
            Wall-clock bounds (``time.time``); ``end`` is clamped to
            ``start`` so a span never has negative duration.
        **meta:
            Extra annotations stored on the span (e.g. ``batch_size``).
        """
        span = Span(name=name, start=start, end=max(start, end), meta=dict(meta))
        with self._lock:
            self._spans.append(span)

    def span_between(self, name: str, start_stamp: str, end_stamp: str, **meta: Any) -> bool:
        """Build a span from two recorded stamps; False when either is missing.

        Parameters
        ----------
        name:
            The span name (see docs/OBSERVABILITY.md for the glossary).
        start_stamp / end_stamp:
            Names previously passed to :meth:`stamp`.
        **meta:
            Attached span metadata.
        """
        with self._lock:
            start = self._stamps.get(start_stamp)
            end = self._stamps.get(end_stamp)
        if start is None or end is None:
            return False
        self.add_span(name, start, end, **meta)
        return True

    def spans(self) -> tuple[Span, ...]:
        """All finalized spans, ordered by start time."""
        with self._lock:
            return tuple(sorted(self._spans, key=lambda span: (span.start, span.end)))

    # -- cross-process transport --------------------------------------------
    def export(self) -> dict[str, Any]:
        """A picklable snapshot (id, stamps, spans) for envelope transport."""
        with self._lock:
            return {
                "trace_id": self.trace_id,
                "stamps": dict(self._stamps),
                "spans": [
                    {"name": span.name, "start": span.start, "end": span.end,
                     "meta": dict(span.meta)}
                    for span in self._spans
                ],
            }

    def merge(self, exported: Mapping[str, Any]) -> None:
        """Fold a worker-side :meth:`export` into this (parent-side) trace.

        Worker stamps are added under their own names (they never collide
        with parent-side names); worker spans are appended as-is.
        """
        stamps = dict(exported.get("stamps", {}))
        spans = list(exported.get("spans", []))
        with self._lock:
            for name, at in stamps.items():
                self._stamps.setdefault(name, at)
            for span in spans:
                self._spans.append(
                    Span(
                        name=span["name"],
                        start=span["start"],
                        end=span["end"],
                        meta=dict(span.get("meta", {})),
                    )
                )

    # -- reporting ----------------------------------------------------------
    def total_span_ms(self) -> float:
        """Sum of all span durations (coverage numerator for tests)."""
        return sum(span.duration_ms for span in self.spans())

    def as_dict(self) -> dict[str, Any]:
        """A JSON-ready view: id plus one entry per span with durations."""
        return {
            "trace_id": self.trace_id,
            "spans": [
                {
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "duration_ms": round(span.duration_ms, 4),
                    **({"meta": dict(span.meta)} if span.meta else {}),
                }
                for span in self.spans()
            ],
        }

    def __repr__(self) -> str:
        names = ",".join(span.name for span in self.spans())
        return f"Trace({self.trace_id}, spans=[{names}])"


# ---------------------------------------------------------------------------
# Minting
# ---------------------------------------------------------------------------
def new_trace_id() -> str:
    """A process-unique trace id (pid-derived prefix + counter)."""
    return f"{_id_prefix}-{next(_id_counter):06x}"


def enabled() -> bool:
    """Whether tracing is active (``REPRO_TRACE``, overridable in code)."""
    return _enabled


def set_enabled(value: bool) -> bool:
    """Override the tracing switch (tests/benchmarks); returns the old value.

    Parameters
    ----------
    value:
        The new switch state.
    """
    global _enabled
    old, _enabled = _enabled, bool(value)
    return old


def maybe_start(trace_id: str | None = None) -> Trace | None:
    """A fresh :class:`Trace` when tracing is enabled, else None.

    Parameters
    ----------
    trace_id:
        Adopt an existing id (cluster workers re-create the parent's
        trace under its id) instead of minting one.
    """
    if not _enabled:
        return None
    return Trace(trace_id)


# ---------------------------------------------------------------------------
# Sampled trace logging
# ---------------------------------------------------------------------------
def _log_sample_rate() -> float:
    try:
        return max(0.0, min(1.0, float(os.environ.get(TRACE_LOG_SAMPLE_ENV, "0"))))
    except ValueError:
        return 0.0


_sample_counter = itertools.count(1)


def maybe_log_trace(trace: Trace | None) -> None:
    """Log a completed trace at the configured sampling rate.

    Deterministic systematic sampling (every k-th completed trace, with
    ``k = round(1/rate)``) rather than RNG draws: cheap, and a fixed
    request volume always yields the expected number of logged traces.

    Parameters
    ----------
    trace:
        The finalized trace (None is tolerated and ignored).
    """
    if trace is None:
        return
    rate = _log_sample_rate()
    if rate <= 0.0:
        return
    stride = max(1, round(1.0 / rate))
    if next(_sample_counter) % stride != 0:
        return
    from repro.obs.logs import get_logger

    get_logger("trace").info(
        "request trace",
        extra={"trace_id": trace.trace_id, "trace": trace.as_dict()["spans"]},
    )
