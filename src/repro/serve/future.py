"""Future: the completion handle returned by :meth:`repro.serve.Session.submit`.

A deliberately small, backend-agnostic future: results and worker-side
errors are *delivered through it* (by the request's ``on_done``, from
whichever thread the backend completes on) instead of being raised at a
wait call far from the submission site.  The surface mirrors
``concurrent.futures.Future`` where the semantics match — ``result`` /
``done`` / ``cancel`` / ``add_done_callback`` — with one sharpening:
:meth:`cancel` only succeeds for work the backend has not dispatched
yet, and a cancelled future raises
:class:`~repro.errors.FutureCancelledError` (a
:class:`~repro.errors.ServeError`) rather than a foreign exception type.
"""

from __future__ import annotations

import threading
from typing import Any, Callable

import numpy as np

from repro.errors import FutureCancelledError
from repro.runtime.request import InsumResult

_PENDING = "pending"
_CANCELLED = "cancelled"
_DONE = "done"


class Future:
    """One request's completion handle (result, error, or cancellation).

    Created by :meth:`repro.serve.Session.submit`; never constructed by
    user code.  Thread-safe: any thread may wait on :meth:`result` while
    the backend resolves the future from its own workers.
    """

    def __init__(self, session: Any = None):
        self._session = session
        self._cond = threading.Condition()
        self._state = _PENDING
        self._record: InsumResult | None = None
        self._callbacks: list[Callable[["Future"], None]] = []

    # -- introspection ------------------------------------------------------
    @property
    def expression(self) -> str | None:
        """The served expression, once the terminal result is known."""
        record = self._record
        return record.expression if record is not None else None

    @property
    def latency_ms(self) -> float | None:
        """End-to-end latency of the completed request (None until done)."""
        record = self._record
        return record.latency_ms if record is not None else None

    def trace(self) -> Any:
        """The request's :class:`~repro.obs.trace.Trace` (None until done).

        Populated once the future resolves, when tracing is enabled
        (``REPRO_TRACE``): span records covering queue wait, execution,
        and — on the cluster tier — admission, codec, and ring crossings.
        """
        record = self._record
        return record.trace if record is not None else None

    def done(self) -> bool:
        """True once the future is resolved (result, error, or cancelled)."""
        with self._cond:
            return self._state != _PENDING

    def cancelled(self) -> bool:
        """True when :meth:`cancel` succeeded before dispatch."""
        with self._cond:
            return self._state == _CANCELLED

    # -- cancellation -------------------------------------------------------
    def cancel(self) -> bool:
        """Try to withdraw the request before the backend dispatches it.

        Returns True when the backend still held the request undispatched
        or the request was waiting on a retry timer (it will never
        execute), or the future was already cancelled; False once
        execution has been claimed or the future resolved.  The inline
        backend executes during ``submit``, so its futures are never
        cancellable.
        """
        with self._cond:
            if self._state == _CANCELLED:
                return True
            if self._state != _PENDING:
                return False
        # On True the cancellation result has already come back through
        # the request's ``on_done`` and resolved this future as cancelled.
        return self._session is not None and self._session._try_cancel(self)

    # -- completion ---------------------------------------------------------
    def result(self, timeout: float | None = None) -> np.ndarray:
        """The output array, waiting up to ``timeout`` seconds.

        Worker-side errors — including
        :class:`~repro.errors.ClusterBusyError` admission rejections and
        :class:`~repro.errors.WorkerCrashedError` — re-raise here,
        uniformly across backends.  A cancelled future raises
        :class:`~repro.errors.FutureCancelledError`; an expired wait
        raises ``TimeoutError``.
        """
        record = self._wait(timeout)
        if record.error is not None:
            raise record.error
        assert record.output is not None
        return record.output

    def exception(self, timeout: float | None = None) -> BaseException | None:
        """The delivered error (None on success), waiting like :meth:`result`.

        A cancelled future raises
        :class:`~repro.errors.FutureCancelledError`, mirroring
        ``concurrent.futures.Future.exception``.
        """
        return self._wait(timeout).error

    def add_done_callback(self, fn: Callable[["Future"], None]) -> None:
        """Call ``fn(self)`` when the future resolves (or now, if it has).

        Callbacks run on the thread that resolves the future (a backend
        worker/collector thread, or the caller for an already-resolved
        future); exceptions they raise are swallowed.
        """
        with self._cond:
            if self._state == _PENDING:
                self._callbacks.append(fn)
                return
        try:
            fn(self)
        except Exception:  # noqa: BLE001 — callbacks must not poison delivery
            pass

    # -- session-internal resolution ----------------------------------------
    def _wait(self, timeout: float | None) -> InsumResult:
        with self._cond:
            if self._state == _PENDING and not self._cond.wait_for(
                lambda: self._state != _PENDING, timeout
            ):
                raise TimeoutError("future did not complete within the timeout")
            if self._state == _CANCELLED:
                raise FutureCancelledError("the future was cancelled")
            assert self._record is not None
            return self._record

    def _deliver(self, record: InsumResult) -> None:
        """Resolve with the backend's terminal result (completing thread)."""
        with self._cond:
            if self._state != _PENDING:
                return  # already cancelled; the backend's record is dropped
            self._record = record
            # A cancellation record resolves to the *cancelled* state even
            # when it outraces the cancelling thread's own bookkeeping.
            self._state = (
                _CANCELLED if isinstance(record.error, FutureCancelledError) else _DONE
            )
            self._cond.notify_all()
        self._run_callbacks()

    def _reject(self, error: BaseException) -> None:
        """Resolve as failed without a backend result (submit-time errors)."""
        self._deliver(InsumResult(request_id=-1, expression="", error=error))

    def _run_callbacks(self) -> None:
        with self._cond:
            callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            try:
                fn(self)
            except Exception:  # noqa: BLE001 — callbacks must not poison delivery
                pass
