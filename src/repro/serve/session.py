"""Session: the one front door over inline, threaded, and cluster serving.

The paper's pitch is that one surface (the indirect Einsum) subsumes a
zoo of hand-written kernels; the serving story makes the same move.
Instead of three divergent entry points — ``insum()`` one-shots, a
thread-pool ``InsumServer``, a ``ClusterServer`` with admission — a
:class:`Session` is constructed with a backend *name* and a typed
:class:`~repro.serve.config.ServeConfig`, and every call site reads the
same afterwards::

    from repro.serve import ServeConfig, Session

    with Session(backend="threaded", config=ServeConfig(workers=8)) as session:
        future = session.submit("C[m,n] += A[m,k] * B[k,n]", A=fmt, B=dense)
        C = future.result(timeout=5.0)

Every request resolves a future: worker-side errors, admission rejections
(:class:`~repro.errors.ClusterBusyError`), and crash give-ups
(:class:`~repro.errors.WorkerCrashedError`) all surface at
:meth:`Future.result`, uniformly across backends.  The asyncio bridge
(:meth:`Session.asubmit`, :meth:`Session.amap_batches`) lets the cluster
tier sit directly behind an async HTTP frontend without blocking the
event loop.
"""

from __future__ import annotations

import asyncio
import functools
import os
import threading
import time
from collections import deque
from typing import Any, AsyncIterator, Iterable, Iterator

import numpy as np

from repro.errors import FutureCancelledError, ServeError, SessionClosedError
from repro.obs import trace as obs_trace
from repro.obs.logs import get_logger
from repro.obs.metrics import get_registry
from repro.resilience.deadline import Deadline
from repro.resilience.failover import fallback_config
from repro.resilience.retry import RetryPolicy
from repro.runtime.request import InsumResult, Request
from repro.runtime.stats import ServeStats
from repro.serve.backend import ExecutorBackend, build_backend
from repro.serve.config import ServeConfig
from repro.serve.future import Future

#: Environment variable selecting the backend for :meth:`Session.from_env`.
BACKEND_ENV = "REPRO_SERVE_BACKEND"


class Session:
    """One serving session over a chosen execution backend.

    Parameters
    ----------
    backend:
        ``"inline"`` (execute in the calling thread), ``"threaded"``
        (an :class:`~repro.runtime.server.InsumServer` thread pool), or
        ``"cluster"`` (a multi-process
        :class:`~repro.cluster.server.ClusterServer`).
    config:
        A :class:`~repro.serve.config.ServeConfig`; validated against the
        backend, so tier-meaningless fields raise
        :class:`~repro.serve.config.ServeConfigError` instead of being
        ignored.  ``None`` means all defaults.

    Used as a context manager, the session drains outstanding work and
    closes the underlying tier on exit.
    """

    def __init__(self, backend: str = "inline", config: ServeConfig | None = None):
        config = config if config is not None else ServeConfig()
        config.validate(backend)
        self.config = config
        self._backend_name = backend
        self._lock = threading.Lock()
        #: Every future handed out and not yet resolved -> its request.
        #: What drain() waits on (futures parked on a retry timer or
        #: blocked in admission included) and how cancel() finds the
        #: request; the entry — the only link from a future to its
        #: request — goes at resolve, so neither outlives the other's use.
        self._unresolved: dict[Future, Request] = {}
        self._closed = False
        self._gateway: Any = None
        self._log = get_logger("serve.session")
        self._backend: ExecutorBackend = build_backend(backend, config)
        # -- resilience: retry policy (cluster only; attempts=1 disables) --
        self._retry: RetryPolicy | None = None
        if config.retry_attempts is not None and config.retry_attempts > 1:
            retry_kwargs: dict[str, Any] = {"max_attempts": config.retry_attempts}
            if config.retry_base_delay is not None:
                retry_kwargs["base_delay"] = config.retry_base_delay
            if config.retry_max_delay is not None:
                retry_kwargs["max_delay"] = config.retry_max_delay
            self._retry = RetryPolicy(**retry_kwargs)
        #: Futures waiting on a resubmission timer -> (timer, request, last
        #: failed result).  Popping an entry under the lock claims it: the
        #: timer firing resubmits, cancel() resolves cancelled, close()
        #: delivers the stored error.
        self._parked: dict[Future, tuple[threading.Timer, Request, InsumResult]] = {}
        # -- resilience: warm failover backend --
        self._fallback: ExecutorBackend | None = None
        self._failover_floor = 1
        if config.failover is not None:
            self._fallback = build_backend(
                config.failover, fallback_config(config, config.failover)
            )
            if config.failover_floor is not None:
                self._failover_floor = config.failover_floor
        registry = get_registry()
        self._m_retries = registry.counter(
            "repro_retries_total",
            "Resubmissions scheduled by the session-level retry policy.",
            backend=backend,
        )
        self._m_failover = registry.counter(
            "repro_failover_submits_total",
            "Submits routed to the warm fallback backend while the primary was unhealthy.",
            backend=backend,
        )

    @classmethod
    def from_env(cls, environ: Any = None) -> "Session":
        """Build a session from ``REPRO_SERVE_*`` environment variables.

        ``REPRO_SERVE_BACKEND`` picks the tier (default ``inline``); the
        remaining variables populate :meth:`ServeConfig.from_env` — so a
        deployment switches from one process to a cluster without a code
        change.  When ``REPRO_GATEWAY_PORT`` is also set, the session
        starts an HTTP gateway configured from the ``REPRO_GATEWAY_*``
        variables (see :meth:`serve_gateway`); a gateway that fails to
        start closes the session and re-raises — a deployment that asked
        for a network edge must not silently run without one.

        Parameters
        ----------
        environ:
            The mapping to read (defaults to ``os.environ``).
        """
        environ = os.environ if environ is None else environ
        backend = environ.get(BACKEND_ENV, "inline")
        session = cls(backend=backend, config=ServeConfig.from_env(environ))
        from repro.gateway.config import GATEWAY_PORT_ENV, GatewayConfig

        if environ.get(GATEWAY_PORT_ENV, "").strip():
            try:
                session.serve_gateway(config=GatewayConfig.from_env(environ))
            except Exception:
                session.close()
                raise
        return session

    @property
    def backend_name(self) -> str:
        """The active backend: ``"inline"``, ``"threaded"``, or ``"cluster"``."""
        return self._backend_name

    # -- submission ---------------------------------------------------------
    def submit(
        self, expression: str, *, deadline_ms: float | None = None, **operands: Any
    ) -> Future:
        """Submit one request; returns its :class:`Future` immediately.

        Parameters
        ----------
        expression:
            The Einsum to execute — raw indirect, or format-agnostic with
            a sparse operand bound.
        deadline_ms:
            Optional per-request deadline, in milliseconds from now.  The
            deadline travels with the request through every stage —
            admission wait, a worker's queue, even into cluster worker
            processes — and an expired request resolves its future with
            :class:`~repro.errors.DeadlineExceededError` instead of
            executing.  (``deadline_ms`` is reserved; an operand cannot
            use that name.)
        **operands:
            Operand tensors by name (:class:`numpy.ndarray` and/or
            :class:`~repro.formats.base.SparseFormat` instances).

        Serving-tier failures (e.g. a cluster admission rejection) do not
        raise here: they resolve the returned future, so error handling
        lives in one place — :meth:`Future.result` — on every backend.
        When the config sets ``retry_attempts > 1``, retryable failures
        (worker crashes, admission rejections) are transparently
        resubmitted with backoff before the future resolves; when it sets
        ``failover``, new submits route to the warm fallback backend
        while the cluster is below its healthy-worker floor.

        Raises
        ------
        SessionClosedError
            When the session has been closed (a programming error, not a
            serving outcome).
        """
        if self._closed:
            raise SessionClosedError("Session is closed")
        future = Future(self)
        request = Request(
            expression,
            operands,
            on_done=functools.partial(self._attempt_done, future),
            deadline=None if deadline_ms is None else Deadline.after_ms(deadline_ms),
        )
        with self._lock:
            self._unresolved[future] = request
        self._submit_attempt(future, request, initial=True)
        return future

    def _submit_attempt(self, future: Future, request: Request, initial: bool) -> None:
        """Hand ``future``'s request to a backend (first attempt or a retry)."""
        request.tier = self._fallback if self._use_fallback() else self._backend
        if request.tier is self._fallback:
            self._m_failover.inc()
        request.attempt += 1
        request.trace = obs_trace.maybe_start()
        if request.trace is not None:
            request.trace.stamp("submit")
            if request.attempt > 1:
                request.trace.stamp(f"retry.{request.attempt}")
        try:
            request.tier.submit(request)
        except ServeError as error:
            if initial and isinstance(error, SessionClosedError):
                with self._lock:
                    del self._unresolved[future]
                raise
            self._attempt_done(future, request.failed(error))

    def submit_many(self, requests: Iterable[tuple[str, dict[str, Any]]]) -> list[Future]:
        """Submit ``(expression, operands)`` pairs; one future per request.

        Never raises mid-iteration: a request the tier rejects (admission
        over capacity, say) yields a future that fails with that error,
        while every other request proceeds, so a mid-batch rejection
        never loses the requests already in flight.
        """
        return [self.submit(expression, **operands) for expression, operands in requests]

    def map_batches(
        self,
        requests: Iterable[tuple[str, dict[str, Any]]],
        window: int = 64,
        timeout: float | None = None,
    ) -> Iterator[np.ndarray]:
        """Stream results for a request iterable, in order, lazily.

        Parameters
        ----------
        requests:
            ``(expression, operands)`` pairs; may be a generator — at
            most ``window`` requests are in flight at once, so an
            unbounded stream serves in bounded memory.
        window:
            In-flight bound.
        timeout:
            Per-result wait bound, as in :meth:`Future.result`.

        Yields
        ------
        numpy.ndarray
            Each request's output, in submission order; a failed request
            raises its error at its position in the stream.
        """
        pending: deque[Future] = deque()
        for expression, operands in requests:
            pending.append(self.submit(expression, **operands))
            while len(pending) >= window:
                yield pending.popleft().result(timeout)
        while pending:
            yield pending.popleft().result(timeout)

    # -- asyncio bridge -----------------------------------------------------
    async def asubmit(
        self, expression: str, *, deadline_ms: float | None = None, **operands: Any
    ) -> np.ndarray:
        """Await one request's result without blocking the event loop.

        An async HTTP handler can call ``await session.asubmit(...)``
        directly; errors raise from the ``await`` exactly as
        :meth:`Future.result` would raise them (see :meth:`asettled`).

        Parameters
        ----------
        expression:
            The Einsum to execute, as for :meth:`submit`.
        deadline_ms:
            Per-request deadline in milliseconds, as for :meth:`submit`.
        **operands:
            Operand tensors by name.
        """
        settled = await self.asettled(expression, deadline_ms=deadline_ms, **operands)
        return settled.result(timeout=0)

    async def asettled(
        self, expression: str, *, deadline_ms: float | None = None, **operands: Any
    ) -> Future:
        """Await one request's :class:`Future`, settled, without blocking the loop.

        The submission itself runs in the loop's default thread-pool
        executor (cluster admission in ``"block"`` mode may wait for
        capacity; the inline tier executes and the cluster dispatches
        inside submit), and completion is bridged back via
        ``call_soon_threadsafe`` — no polling.  The gateway reads the
        settled future's ``latency_ms`` and trace; :meth:`asubmit` unwraps
        its result.

        Parameters
        ----------
        expression:
            The Einsum to execute, as for :meth:`submit`.
        deadline_ms:
            Per-request deadline in milliseconds, as for :meth:`submit`
            (the gateway's header-carried budget lands here).
        **operands:
            Operand tensors by name.
        """
        loop = asyncio.get_running_loop()
        submit = functools.partial(
            self.submit, expression, deadline_ms=deadline_ms, **operands
        )
        future = await loop.run_in_executor(None, submit)
        done: asyncio.Future[Future] = loop.create_future()

        def transfer(settled: Future) -> None:
            def apply() -> None:
                if not done.done():
                    done.set_result(settled)

            loop.call_soon_threadsafe(apply)

        future.add_done_callback(transfer)
        return await done

    async def amap_batches(
        self,
        requests: Iterable[tuple[str, dict[str, Any]]],
        window: int = 64,
    ) -> AsyncIterator[np.ndarray]:
        """Async variant of :meth:`map_batches` (``async for`` over results).

        Parameters
        ----------
        requests:
            ``(expression, operands)`` pairs; at most ``window`` are in
            flight at once.
        window:
            In-flight bound.
        """
        pending: deque[asyncio.Task] = deque()
        try:
            for expression, operands in requests:
                pending.append(asyncio.ensure_future(self.asubmit(expression, **operands)))
                while len(pending) >= window:
                    yield await pending.popleft()
            while pending:
                yield await pending.popleft()
        finally:
            for task in pending:
                task.cancel()

    # -- completion plumbing ------------------------------------------------
    def _attempt_done(self, future: Future, result: InsumResult) -> None:
        """The request's ``on_done``: deliver the result, or park for a retry.

        A retryable error (worker crash, admission rejection) with
        attempts remaining arms a backoff timer that resubmits the
        request instead of resolving the future; everything else
        delivers immediately.
        """
        error = result.error
        request = None
        if self._retry is not None and error is not None:
            with self._lock:
                request = self._unresolved.get(future)  # None: already cancelled
        if request is None or not self._retry.should_retry(request.attempt, error):
            self._resolve(future, result)
            return
        delay = self._retry.delay(
            request.attempt, error=error, prev_delay=request.prev_delay
        )
        request.prev_delay = delay
        timer = threading.Timer(delay, self._retry_fired, args=(future,))
        timer.daemon = True
        with self._lock:
            parked = not self._closed
            if parked:
                self._parked[future] = (timer, request, result)
        if not parked:
            self._resolve(future, result)
            return
        self._m_retries.inc()
        self._log.info(
            "retrying request after retryable failure",
            extra={
                "attempt": request.attempt,
                "delay_s": round(delay, 4),
                "error": repr(error),
            },
        )
        timer.start()

    def _retry_fired(self, future: Future) -> None:
        """A backoff timer expired: resubmit, unless someone claimed the entry."""
        with self._lock:
            entry = self._parked.pop(future, None)
        if entry is not None:
            self._submit_attempt(future, entry[1], initial=False)

    def _resolve(self, future: Future, result: InsumResult) -> None:
        """Deliver ``future``'s terminal result and stop tracking it."""
        with self._lock:
            self._unresolved.pop(future, None)
        future._deliver(result)

    def _use_fallback(self) -> bool:
        """True when new submits should route to the warm fallback backend.

        The primary is considered unhealthy when its healthy-worker count
        (dead slots and control-plane failures excluded) has fallen below
        the configured ``failover_floor``.
        """
        if self._fallback is None:
            return False
        healthy = getattr(self._backend, "healthy_worker_count", None)
        if healthy is None:
            return False
        return int(healthy) < self._failover_floor

    def _try_cancel(self, future: Future) -> bool:
        """Cancel ``future``'s request where it currently waits.

        A request parked on a retry timer is claimed here (the timer is
        disarmed and the future resolves cancelled); otherwise the
        backend that accepted the request decides.
        """
        with self._lock:
            entry = self._parked.pop(future, None)
            request = self._unresolved.get(future)
        if entry is not None:
            timer, request, _ = entry
            timer.cancel()
            self._resolve(
                future,
                request.failed(FutureCancelledError("cancelled while waiting to be retried")),
            )
            return True
        # None: the future resolved while the caller was deciding.
        return request is not None and request.tier.try_cancel(request)

    # -- lifecycle ----------------------------------------------------------
    def drain(self, timeout: float | None = None) -> bool:
        """Wait for outstanding futures to resolve; best-effort under a timeout.

        Parameters
        ----------
        timeout:
            Total seconds to wait across all outstanding futures;
            ``None`` waits indefinitely.

        Returns
        -------
        bool
            True when every outstanding future resolved; False when the
            timeout expired with work still unresolved (never raises for
            a timeout — the caller keeps the futures and can wait again).
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            outstanding = list(self._unresolved)
        drained = True
        for future in outstanding:
            remaining = None if deadline is None else max(0.0, deadline - time.monotonic())
            try:
                future.exception(remaining)
            except TimeoutError:
                drained = False  # keep checking the rest with whatever time is left
            except ServeError:
                pass  # resolved (cancelled) — drained as far as it will go
        return drained

    def close(self, timeout: float | None = None) -> None:
        """Drain outstanding work and shut down the backend (idempotent).

        Parameters
        ----------
        timeout:
            Bound on the drain; work still unresolved afterwards is
            abandoned to the backend's own close semantics (no
            ``TimeoutError`` is raised).
        """
        if self._closed:
            return
        self._closed = True
        # Cancel armed retry timers first and resolve their futures with
        # the last failed attempt's error — a cancelled timer never fires,
        # so leaving these pending would hang drain() (and any waiter).
        with self._lock:
            parked = dict(self._parked)
            self._parked.clear()
        for future, (timer, _, result) in parked.items():
            timer.cancel()
            self._resolve(future, result)
        if self._gateway is not None:
            self._gateway.stop()
            self._gateway = None
        try:
            self.drain(timeout)
        finally:
            try:
                self._backend.close()
            finally:
                if self._fallback is not None:
                    self._fallback.close()

    def __enter__(self) -> "Session":
        """Enter the context; the session is usable immediately."""
        return self

    def __exit__(self, *exc: Any) -> None:
        """Drain and close the underlying tier."""
        self.close()

    # -- reporting ----------------------------------------------------------
    def stats(self) -> ServeStats:
        """The backend's report over its current measurement window."""
        return self._backend.stats()

    def reset_stats(self) -> None:
        """Start a fresh measurement window on the backend."""
        self._backend.reset_stats()

    def health(self) -> dict[str, Any]:
        """Backend liveness: the gateway's ``/v1/healthz`` body.

        All tiers report ``status`` (``"ok"`` / ``"degraded"`` /
        ``"closed"``) and a ``workers`` list; the cluster tier adds
        per-worker pids, heartbeat ages, restart counts, and the health
        monitor's latest RSS/CPU samples.
        """
        probe = getattr(self._backend, "health", None)
        if probe is None:
            return {
                "status": "closed" if self._closed else "ok",
                "backend": self._backend_name,
                "workers": [],
            }
        report = probe()
        if self._fallback is not None:
            report = dict(
                report,
                failover={
                    "backend": self.config.failover,
                    "floor": self._failover_floor,
                    "active": self._use_fallback(),
                },
            )
        if self._closed:
            report = dict(report, status="closed")
        return report

    def publish_metrics(self) -> None:
        """Refresh the ``repro_serve_*`` gauges from this session's stats.

        Called by the gateway before each ``/metrics`` render.  The
        cluster tier's plan-cache counters live inside the
        worker *processes* — outside the parent's registry — so this is
        how they (and the window as a whole) reach Prometheus: gauges
        snapshotting :meth:`stats`, labelled with the backend.  Nothing
        is asked of a worker — the counters rode in on its responses.
        """
        stats = self.stats()
        registry = get_registry()
        values: dict[str, float] = {
            "completed": stats.completed,
            "failed": stats.failed,
            "cancelled": stats.cancelled,
            "plan_cache_hits": stats.cache_hits,
            "plan_cache_misses": stats.cache_misses,
            "plan_cache_hit_rate": stats.cache_hit_rate,
            "rejected": stats.rejected,
            "requeued": stats.requeued,
            "restarts": stats.restarts,
            "p50_latency_ms": stats.p50_latency_ms,
            "p95_latency_ms": stats.p95_latency_ms,
            "p99_latency_ms": stats.p99_latency_ms,
            "throughput_rps": stats.throughput_rps,
        }
        for field, value in values.items():
            registry.gauge(
                f"repro_serve_{field}",
                "Session-window ServeStats snapshot, refreshed per /metrics scrape.",
                backend=self._backend_name,
            ).set(float(value))

    def serve_gateway(self, config: Any = None, port: int | None = None,
                      host: str | None = None) -> Any:
        """Start (or return) this session's HTTP gateway.

        The network front door: the versioned ``/v1`` wire API of
        :class:`repro.gateway.GatewayServer` — JSON and binary operand
        encodings, per-tenant API-key auth and admission quotas,
        header-carried deadlines, trace propagation — plus ``/metrics``
        and ``/v1/statsz``, served on a daemon thread over this session.  Stopped automatically by
        :meth:`close`.  Also started by :meth:`from_env` when the
        ``REPRO_GATEWAY_PORT`` environment variable is set.

        Parameters
        ----------
        config:
            A :class:`repro.gateway.GatewayConfig`; None builds one from
            the defaults plus the ``port``/``host`` overrides below.
        port:
            Overrides ``config.port`` (0 = ephemeral; read it back from
            the returned server's ``port``).
        host:
            Overrides ``config.host`` (loopback by default).
        """
        if self._closed:
            raise SessionClosedError("Session is closed")
        if self._gateway is None:
            from repro.gateway import GatewayConfig, GatewayServer

            if config is None:
                config = GatewayConfig()
            if port is not None or host is not None:
                import dataclasses

                config = dataclasses.replace(
                    config,
                    **{
                        key: value
                        for key, value in (("port", port), ("host", host))
                        if value is not None
                    },
                )
            self._gateway = GatewayServer(session=self, config=config).start()
            self._log.info(
                "gateway listening",
                extra={
                    "host": config.host,
                    "port": self._gateway.port,
                    "backend": self._backend_name,
                },
            )
        return self._gateway

    @property
    def gateway(self) -> Any:
        """The running :class:`repro.gateway.GatewayServer`, or None."""
        return self._gateway
