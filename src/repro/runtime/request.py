"""Request and InsumResult: one unit of serving work and its outcome.

A :class:`Request` is built once — by :meth:`repro.serve.Session.submit`,
by a tier's ``run_batch`` helper, or by a cluster worker re-creating the
parent's request — and handed to a serving tier through the two-method
backend protocol ``submit(request)`` / ``try_cancel(request)``.  It
carries everything the request needs on its way (trace, deadline,
attempt counters) and the ``on_done`` completion that receives its
:class:`InsumResult`, so no tier keeps a ticket table to find its way
back to the caller.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Iterable

import numpy as np

from repro.errors import ServeError, SessionClosedError
from repro.obs import trace as obs_trace
from repro.resilience.deadline import Deadline, expired_result

_QUEUED = "queued"
_CLAIMED = "claimed"
_CANCELLED = "cancelled"
_DONE = "done"


@dataclass
class InsumResult:
    """Outcome of one request: either an output array or an error.

    ``request_id`` is the number the serving tier gave the request when
    it accepted it (log correlation only; -1 for a request no tier
    accepted).  ``trace`` carries the request's finalized
    :class:`~repro.obs.trace.Trace` (span records included) when tracing
    is enabled; :meth:`repro.serve.Future.trace` reads it.
    """

    request_id: int
    expression: str
    output: np.ndarray | None = None
    error: BaseException | None = None
    latency_ms: float = 0.0
    queue_ms: float = 0.0
    trace: Any = None

    @property
    def ok(self) -> bool:
        """True when the request produced an output (no worker-side error)."""
        return self.error is None

    def unwrap(self) -> np.ndarray:
        """The output array, re-raising the worker-side error if any."""
        if self.error is not None:
            raise self.error
        assert self.output is not None
        return self.output


def clock() -> tuple[float, float]:
    """``(perf_counter, time)`` now: latency accounting and span bounds."""
    return time.perf_counter(), time.time()


@dataclass(eq=False)
class Request:
    """One request, from the submitter to the thread that executes it.

    ``on_done`` is called exactly once per accepted submission, with the
    terminal :class:`InsumResult`, from whichever thread completes the
    request.  ``trace`` / ``deadline`` are the request's
    :class:`~repro.obs.trace.Trace` and :class:`~repro.resilience.Deadline`
    (None when tracing is off / the request is unbounded).  ``attempt``
    and ``prev_delay`` belong to the session's retry policy and ``tier``
    is the backend it last submitted to (cancel routing); ``dispatches``,
    ``crashes`` and ``exclude_worker`` are the cluster's redispatch
    bookkeeping, and ``request_id`` doubles as its wire id for matching
    response envelopes.  The accepting tier sets ``request_id`` and
    ``submitted_at`` (a ``perf_counter`` timestamp) in :meth:`accept`.

    The request owns its lifecycle state: ``queued`` (accepted, waiting,
    cancellable) → ``claimed`` (a worker owns it) or ``cancelled`` →
    ``done``; every transition is a compare-and-set under the request's
    lock, so a cancel and a claim can never both win.
    """

    expression: str
    operands: dict[str, Any]
    on_done: Callable[[InsumResult], None]
    trace: Any = None
    deadline: Deadline | None = None
    attempt: int = 0
    prev_delay: float | None = None
    tier: Any = None
    request_id: int = -1
    submitted_at: float = 0.0
    dispatches: int = 0
    crashes: int = 0
    exclude_worker: int | None = None
    _state: str = _CLAIMED
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    # -- lifecycle state ----------------------------------------------------
    def _move(self, allowed: tuple[str, ...], to: str) -> bool:
        with self._lock:
            if self._state not in allowed:
                return False
            self._state = to
            return True

    def accept(self, request_id: int) -> None:
        """A tier took the request: number it, start its clock, queue it."""
        self.request_id = request_id
        self.submitted_at = time.perf_counter()
        self.dispatches = self.crashes = 0
        self.exclude_worker = None
        with self._lock:
            self._state = _QUEUED

    def expired(self) -> bool:
        """True once the request's deadline (if any) has passed."""
        return self.deadline is not None and self.deadline.expired()

    def claim(self) -> bool:
        """queued → claimed; False when the request was cancelled first."""
        return self._move((_QUEUED,), _CLAIMED)

    def cancel(self) -> bool:
        """queued → cancelled; False once a worker has claimed the request."""
        return self._move((_QUEUED,), _CANCELLED)

    def finish(self) -> bool:
        """→ done; False when a racing path already delivered the result."""
        return self._move((_QUEUED, _CLAIMED, _CANCELLED), _DONE)

    # -- results ------------------------------------------------------------
    def failed(self, error: BaseException, now: float | None = None) -> InsumResult:
        """The result of a request that never executed (shed, refused, cancelled).

        Parameters
        ----------
        error:
            The terminal error.
        now:
            ``perf_counter`` at the decision, for ``queue_ms`` (None when
            no tier accepted the request, so it never queued).
        """
        queue_ms = 0.0 if now is None else (now - self.submitted_at) * 1e3
        return InsumResult(
            request_id=self.request_id,
            expression=self.expression,
            error=error,
            queue_ms=queue_ms,
            trace=self.trace,
        )

    def executed(
        self,
        output: np.ndarray | None,
        error: BaseException | None,
        started: tuple[float, float],
        finished: tuple[float, float],
    ) -> InsumResult:
        """The result of one execution — the only place a tier builds it.

        Latency runs from :meth:`accept` to ``finished``, ``queue_ms`` to
        ``started``; an output that landed after the deadline becomes a
        :class:`~repro.errors.DeadlineExceededError`; the trace gains its
        ``queue.wait`` and ``execute`` spans.

        Parameters
        ----------
        output / error:
            What the executor returned or raised (exactly one is set).
        started / finished:
            :func:`clock` pairs taken around the execution.
        """
        result = InsumResult(
            request_id=self.request_id,
            expression=self.expression,
            output=output,
            error=error,
            queue_ms=(started[0] - self.submitted_at) * 1e3,
            latency_ms=(finished[0] - self.submitted_at) * 1e3,
            trace=self.trace,
        )
        expired_result(result, self.deadline)
        if self.trace is not None:
            self.trace.stamp("exec.start", started[1])
            self.trace.stamp("exec.end", finished[1])
            self.trace.span_between("queue.wait", "queued", "exec.start")
            self.trace.span_between("execute", "exec.start", "exec.end")
        return result


def run_batch(
    tier: Any,
    requests: Iterable[tuple[str, dict[str, Any]]],
    timeout: float | None = None,
) -> list[InsumResult]:
    """Submit ``(expression, operands)`` pairs to ``tier`` and wait for all.

    The synchronous helper behind ``InsumServer.run_batch`` and
    ``ClusterServer.run_batch``: results come back in request order, and
    a request the tier refuses (admission over capacity, an expired
    deadline) yields a failed result in its place instead of abandoning
    the ones already in flight.

    Parameters
    ----------
    tier:
        Any backend speaking ``submit(request)``.
    requests:
        The ``(expression, operands)`` pairs.
    timeout:
        Total seconds to wait for the batch; ``None`` waits indefinitely.

    Raises
    ------
    SessionClosedError
        When the tier is closed.
    TimeoutError
        When the batch did not complete within ``timeout``.
    """
    pairs = list(requests)
    results: list[InsumResult | None] = [None] * len(pairs)
    landed = threading.Semaphore(0)

    def store(index: int, result: InsumResult) -> None:
        results[index] = result
        landed.release()

    for index, (expression, operands) in enumerate(pairs):
        request = Request(
            expression, operands, partial(store, index), trace=obs_trace.maybe_start()
        )
        try:
            tier.submit(request)
        except SessionClosedError:
            raise
        except ServeError as error:
            store(index, request.failed(error))
    deadline = None if timeout is None else time.monotonic() + timeout
    for _ in pairs:
        remaining = None if deadline is None else max(0.0, deadline - time.monotonic())
        if not landed.acquire(timeout=remaining):
            raise TimeoutError("the batch did not complete within the timeout")
    return results  # type: ignore[return-value]
