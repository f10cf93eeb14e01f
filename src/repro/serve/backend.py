"""ExecutorBackend: the protocol every serving tier speaks, plus inline.

The serve tier's refactoring move: :class:`~repro.runtime.server.InsumServer`
(threaded) and :class:`~repro.cluster.server.ClusterServer`
(multi-process) both implement this one structural protocol, and
:class:`InlineBackend` here adds the zero-infrastructure variant that
executes in the calling thread — so :class:`repro.serve.Session` drives
all three through identical plumbing.  All backends execute requests
through the shared :class:`~repro.runtime.server.RequestExecutor` code
path, which is what makes one workload's results bit-identical across
them.
"""

from __future__ import annotations

import itertools
from typing import Any, Protocol, runtime_checkable

from repro.errors import DeadlineExceededError, SessionClosedError
from repro.obs import trace as obs_trace
from repro.runtime.request import Request, clock
from repro.runtime.server import RequestExecutor
from repro.runtime.stats import ServeStats, ServingWindow
from repro.serve.config import ServeConfig


@runtime_checkable
class ExecutorBackend(Protocol):
    """The structural contract between :class:`Session` and a serving tier.

    ``InsumServer``, ``ClusterServer``, and :class:`InlineBackend` all
    satisfy it; a custom tier only has to match these five methods to sit
    behind a session.  The request-carrying pair is ``submit`` /
    ``try_cancel``; the rest is reporting and lifecycle.
    """

    def submit(self, request: Request) -> None:
        """Accept one request, or raise a :class:`~repro.errors.ServeError`.

        An accepted request's ``on_done`` is called exactly once with its
        terminal :class:`~repro.runtime.request.InsumResult` (possibly
        before ``submit`` returns); a refused request's never is.
        """
        ...

    def try_cancel(self, request: Request) -> bool:
        """Withdraw a not-yet-dispatched request; False once it is running.

        On True the request never executes and its ``on_done`` receives a
        :class:`~repro.errors.FutureCancelledError` result.
        """
        ...

    def stats(self) -> ServeStats:
        """The tier's report over its current measurement window."""
        ...

    def reset_stats(self) -> None:
        """Start a fresh measurement window."""
        ...

    def close(self) -> None:
        """Drain outstanding work and release the tier's resources."""
        ...


class InlineBackend:
    """Synchronous in-thread execution behind the backend protocol.

    ``submit`` runs the request immediately in the calling thread
    through the shared :class:`~repro.runtime.server.RequestExecutor` —
    no queue, no worker threads, no coalescing — and delivers the result
    before returning.  The zero-concurrency baseline: debugging,
    determinism-sensitive comparisons, and tests use it to pin down what
    the concurrent tiers must reproduce bit-for-bit.
    """

    name = "inline"

    def __init__(self, **executor_kwargs: Any):
        self._executor = RequestExecutor(**executor_kwargs)
        self._ids = itertools.count()
        self._window = ServingWindow(tier="inline", workers=1)
        self._closed = False

    def submit(self, request: Request) -> None:
        """Execute one request now; ``on_done`` runs before this returns."""
        if self._closed:
            raise SessionClosedError("inline backend is closed")
        if request.expired():
            # Inline has no queue to linger in: expiry can only happen
            # before execution starts or while it runs (converted at
            # result time).
            raise DeadlineExceededError(
                "request exceeded its deadline before execution"
            )
        if request.trace is not None:
            request.trace.stamp("queued")
        request.accept(next(self._ids))
        started = clock()
        self._window.open_at(started[0])
        output = error = None
        try:
            output = self._executor.execute(request.expression, request.operands)
        except Exception as caught:  # noqa: BLE001 — delivered through the result
            error = caught
        finished = clock()
        result = request.executed(output, error, started, finished, coalesced=False)
        obs_trace.maybe_log_trace(result.trace)
        self._window.observe(result.ok, result.latency_ms, finished[0])
        request.on_done(result)

    def try_cancel(self, request: Request) -> bool:
        """Always False: inline work completes during ``submit``."""
        return False

    def stats(self) -> ServeStats:
        """Throughput, latency percentiles, and cache hit rate so far."""
        return self._window.snapshot()

    def reset_stats(self) -> None:
        """Start a fresh measurement window (counters, latencies, cache mark)."""
        self._window.reset()

    def health(self) -> dict[str, Any]:
        """Liveness report for ``/healthz`` (inline: the caller's thread)."""
        return {
            "status": "closed" if self._closed else "ok",
            "backend": "inline",
            "workers": [],
        }

    def close(self) -> None:
        """Refuse further submits (inline holds no threads or queues)."""
        self._closed = True


def build_backend(name: str, config: ServeConfig) -> ExecutorBackend:
    """Construct the named tier from a validated :class:`ServeConfig`.

    Parameters
    ----------
    name:
        ``"inline"``, ``"threaded"``, or ``"cluster"``.
    config:
        Already validated for ``name`` (see :meth:`ServeConfig.validate`).
    """
    kwargs = config._backend_kwargs(name)
    if name == "inline":
        return InlineBackend(**kwargs)
    if name == "threaded":
        from repro.runtime.server import InsumServer

        return InsumServer(**kwargs)
    from repro.cluster.server import ClusterServer

    return ClusterServer(**kwargs)
