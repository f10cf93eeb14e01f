"""The serving core: one executor, one request routine, and the threaded tier.

The compiler stack below this module is request-free: every entry point
takes one expression and one set of operands.  This module turns it into
a serving engine, in four layers:

* :class:`RequestExecutor` — the per-request execution core: long-lived
  per-expression operators (:class:`SparseEinsum` / :class:`Insum`) and
  expression classification.
* :class:`TierCore` — what every tier shares, the cluster's parent too:
  request ids, the window, the deadline counter, ``try_cancel``,
  ``run_batch`` and the publication of each terminal result.
* :class:`InlineBackend` — the one request routine (:meth:`InlineBackend.serve`:
  claim, shed an expired request, execute it on its expression's
  operator, record) and the inline tier, which serves each request in the
  calling thread.
  The threaded tier's worker threads and every cluster worker's main
  thread serve through the same routine, which is what makes results
  bit-identical across serving backends.
* :class:`InsumServer` — the inline backend plus a queue and a pool of
  worker threads, implementing the :class:`repro.serve.ExecutorBackend`
  protocol (``submit(request)`` / ``try_cancel(request)`` / ``stats`` /
  ``close``); each worker thread takes one request per queue read.

Requests arrive as :class:`~repro.runtime.request.Request` objects that
carry their own completion; :meth:`TierCore.run_batch` is the
synchronous convenience over that protocol, and
:class:`repro.serve.Session` the futures-based front door.
"""

from __future__ import annotations

import itertools
import queue
import threading
import time
from typing import Any, Iterable

import numpy as np

from repro.core.insum.api import Insum, SparseEinsum
from repro.errors import DeadlineExceededError, FutureCancelledError, SessionClosedError
from repro.formats.base import SparseFormat
from repro.obs import trace as obs_trace
from repro.resilience.deadline import deadline_error
from repro.obs.logs import get_logger
from repro.obs.metrics import get_registry
from repro.runtime import request as runtime_request
from repro.runtime.request import InsumResult, Request, clock
from repro.runtime.stats import ServeStats, ServingWindow


class RequestExecutor:
    """The per-request execution core shared by every serving backend.

    Owns the long-lived reusable operators (one per distinct expression)
    and the expression-classification cache; with ``auto_format`` on, a
    request's operators re-format its sparse operand through the tuner.
    The request routine of :class:`InlineBackend` is the one caller of
    :meth:`execute`, on every tier, so a request produces the same bits no
    matter which tier served it.  An operator call is reentrant, so threads
    share an operator without a lock.

    Parameters
    ----------
    backend / config:
        Defaults for every operator the executor builds.
    auto_format:
        Tuner integration: profile each request's sparse (or promotable
        dense) operand and re-format it per sparsity regime (see
        :mod:`repro.tuner`).
    """

    def __init__(
        self,
        backend: str = "inductor",
        config: Any | None = None,
        auto_format: bool = False,
    ):
        self.backend = backend
        self.config = config
        self.auto_format = bool(auto_format)
        self._operators: dict[tuple[str, str], Any] = {}
        self._operators_lock = threading.Lock()
        #: expression -> (is_logical, rhs_factor_names); used by the
        #: auto_format path to recognise dense operands it may sparsify.
        self._expression_info: dict[str, tuple[bool, tuple[str, ...]]] = {}

    def operator_for(self, expression: str, has_sparse: bool) -> Any:
        """The long-lived reusable operator for one expression.

        Format-agnostic requests (a sparse operand present, or the
        executor running with ``auto_format``) get a
        :class:`SparseEinsum`; raw indirect Einsums get an :class:`Insum`.
        """
        key = (expression, "sparse" if has_sparse else "indirect")
        with self._operators_lock:
            operator = self._operators.get(key)
            if operator is None:
                if has_sparse:
                    operator = SparseEinsum(
                        expression,
                        backend=self.backend,
                        config=self.config,
                        format="auto" if self.auto_format else None,
                    )
                else:
                    operator = Insum(expression, backend=self.backend, config=self.config)
                self._operators[key] = operator
            return operator

    def expression_info(self, expression: str) -> tuple[bool, tuple[str, ...]]:
        """Whether an expression is purely *logical* (no indirect accesses).

        Only logical expressions may have dense operands promoted to
        sparse formats (in a raw indirect Einsum, a sparse-looking 2-D
        array is storage, not a logical matrix).  Returns ``(logical,
        rhs_factor_names)``; ``(False, ())`` when parsing failed.
        """
        with self._operators_lock:
            cached = self._expression_info.get(expression)
        if cached is not None:
            return cached
        from repro.core.einsum.ast import TensorAccess
        from repro.core.einsum.parser import parse_einsum

        try:
            statement = parse_einsum(expression)
            logical = not any(
                isinstance(ix, TensorAccess)
                for access in statement.all_accesses()
                for ix in access.indices
            )
            rhs = tuple(f.tensor for f in statement.rhs.factors)
        except Exception:  # noqa: BLE001 — classification must not fail a request
            logical, rhs = False, ()
        with self._operators_lock:
            self._expression_info[expression] = (logical, rhs)
        return logical, rhs

    def execute(self, expression: str, operands: dict[str, Any]) -> np.ndarray:
        """Execute one request exactly as a direct operator call would.

        A request with a sparse operand runs on the expression's
        :class:`SparseEinsum`; so does, under ``auto_format``, a logical
        expression with a promotable dense operand (2-D, density < 0.5).
        That operator's ``format="auto"`` pass profiles and re-formats the
        operand through the tuner.  Anything else runs on its :class:`Insum`.
        """
        has_sparse = any(isinstance(value, SparseFormat) for value in operands.values())
        if not has_sparse and self.auto_format:
            logical, rhs_names = self.expression_info(expression)
            arrays = (np.asarray(operands[name]) for name in rhs_names if name in operands)
            has_sparse = logical and any(
                arr.ndim == 2 and np.count_nonzero(arr) < 0.5 * arr.size for arr in arrays
            )
        return self.operator_for(expression, has_sparse)(**operands)

    def expressions(self) -> list[str]:
        """Distinct expressions with a live reusable operator."""
        with self._operators_lock:
            return sorted({expression for expression, _ in self._operators})


class TierCore:
    """The tier-agnostic half of every serving tier: request ids, the
    measurement window, the ``repro_deadline_expired_total{backend}``
    counter, cancellation and the publication of each terminal result.

    :class:`InlineBackend` (so :class:`InsumServer` too) and
    :class:`repro.cluster.ClusterServer` subclass it.  A subclass names its
    tier in :attr:`name` and hands every terminal result to :meth:`_record`;
    the cluster's override does its own bookkeeping (admission, drain,
    per-worker completions, the worker's trace) around :meth:`_account`.
    """

    #: The tier label of the window and of the deadline counter.
    name: str

    def __init__(self, workers: int, logger: str):
        self._ids = itertools.count()
        #: The measurement window; a cluster worker reads its counters.
        self.window = ServingWindow(tier=self.name, workers=workers)
        self._closed = False
        self._log = get_logger(logger)
        self._m_deadline = get_registry().counter(
            "repro_deadline_expired_total",
            "Requests that exceeded their deadline, by serving tier.",
            backend=self.name,
        )

    def __enter__(self) -> "TierCore":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def try_cancel(self, request: Request) -> bool:
        """Cancel a request no worker or dispatcher has claimed yet.

        Returns True when the cancel wins the compare-and-set against the
        claim: the request never executes, and its ``on_done`` receives a
        :class:`~repro.errors.FutureCancelledError` result (not counted as
        completed or failed).  Returns False once it is claimed (or already
        finished) — the result will arrive normally.
        """
        if not request.cancel():
            return False
        error = FutureCancelledError(f"request {request.request_id} was cancelled before dispatch")
        self._record(request, request.failed(error))
        return True

    def run_batch(
        self,
        requests: Iterable[tuple[str, dict[str, Any]]],
        timeout: float | None = None,
    ) -> list[InsumResult]:
        """Serve ``(expression, operands)`` pairs; results in request order.

        The synchronous helper over ``submit`` (see
        :func:`repro.runtime.request.run_batch`): a request the tier refuses
        yields a failed result in its place.  New code should prefer
        :meth:`repro.serve.Session.map_batches`, which streams results
        with a bounded in-flight window.
        """
        return runtime_request.run_batch(self, requests, timeout)

    def _record(self, request: Request, result: InsumResult) -> None:
        """Publish one terminal result: :meth:`_account` it, then run
        ``on_done``."""
        self._account(request, result)
        request.on_done(result)

    def _account(self, request: Request, result: InsumResult) -> None:
        """Count a deadline miss, account the result in the window (a
        cancel as ``cancelled``), and log a failure and the trace."""
        error = result.error
        if isinstance(error, DeadlineExceededError):
            self._m_deadline.inc()
        if isinstance(error, FutureCancelledError):
            self.window.count("cancelled")
        else:
            self.window.observe(result.ok, result.latency_ms, time.perf_counter())
            if error is not None:
                self._log.info(
                    "request failed",
                    extra={
                        "request_id": request.request_id,
                        "expression": request.expression,
                        "error": repr(error),
                        "trace_id": result.trace.trace_id if result.trace else None,
                    },
                )
            obs_trace.maybe_log_trace(result.trace)


class InlineBackend(TierCore):
    """Synchronous serving over one :class:`RequestExecutor`: the inline
    tier, and the one request routine every tier executes through.

    :meth:`serve` takes one accepted request and, in the calling thread,
    claims it and executes it on its expression's operator (shedding it
    when it has expired by its turn), recording the result.  Its three
    callers: :meth:`submit` here, which serves the request before returning
    (the ``"inline"`` tier, the zero-concurrency baseline);
    :class:`InsumServer`'s worker threads, on each request they take from
    the queue; and a cluster worker's main thread
    (:mod:`repro.cluster.worker`), on each envelope as it reads it.

    Parameters
    ----------
    backend / config:
        Defaults for every operator the backend builds.
    auto_format:
        When True, format-agnostic requests route through the
        :mod:`repro.tuner` auto path (``format="auto"``): each request's
        sparse operand is profiled, the tuner's Section 4.2 rule picks the
        storage format per sparsity regime (decisions are memoised by
        profile bucket), and each chosen format compiles once — so one
        server adapts across heterogeneous request streams.  Sparse
        operands may then also be plain dense arrays.
    workers:
        The parallelism reported as ``ServeStats.workers``.
    """

    name = "inline"

    def __init__(
        self,
        backend: str = "inductor",
        config: Any | None = None,
        auto_format: bool = False,
        workers: int = 1,
    ):
        super().__init__(workers, "runtime.server")
        self.executor = RequestExecutor(backend=backend, config=config, auto_format=auto_format)

    def close(self) -> None:
        """Refuse further submits (inline holds no threads or queues)."""
        self._closed = True

    def accept(self, request: Request, request_id: int | None = None) -> None:
        """Take one request towards :meth:`serve`: stamp its trace's
        ``queued``, number it (``request_id`` when the caller already has
        one) and open the window at its submission."""
        if request.trace is not None:
            request.trace.stamp("queued")
        request.accept(next(self._ids) if request_id is None else request_id)
        self.window.open_at(request.submitted_at)

    # -- the ExecutorBackend protocol ---------------------------------------
    def submit(self, request: Request) -> None:
        """Serve one request now; its ``on_done`` runs before this returns.
        Raises :class:`SessionClosedError` once closed and
        :class:`DeadlineExceededError` for an already expired request."""
        self._admit(request)
        self.serve(request)

    def _admit(self, request: Request) -> None:
        """Refuse a request this tier cannot take (closed, or already
        expired: dead work is never accepted), else :meth:`accept` it."""
        if self._closed:
            raise SessionClosedError(f"the {self.name} backend is closed")
        if request.expired():
            raise DeadlineExceededError("request exceeded its deadline before it was accepted")
        self.accept(request)

    # -- the request routine ------------------------------------------------
    def serve(self, request: Request) -> None:
        """Claim, execute and record one accepted request: one pinned call
        on its expression's operator, or, when it expired by its turn, its
        deadline error without spending time on output nobody can use."""
        # A cancelled request was already recorded by try_cancel.
        if not request.claim():
            return
        if request.expired():
            error = deadline_error(request.request_id, "queue")
            self._record(request, request.failed(error, time.perf_counter()))
            return
        started = clock()
        output = error = None
        try:
            output = self.executor.execute(request.expression, request.operands)
        except Exception as caught:  # noqa: BLE001 — a bad request must not kill the worker
            error = caught
        self._record(request, request.executed(output, error, started, clock()))

    # -- reporting ----------------------------------------------------------
    def stats(self) -> ServeStats:
        """Throughput, latency percentiles, and cache hit rate so far."""
        return self.window.snapshot()

    def reset_stats(self) -> None:
        """Start a fresh measurement window (counters, latencies, cache mark)."""
        self.window.reset()

    def health(self) -> dict[str, Any]:
        """Liveness report for ``/v1/healthz`` (inline: the caller's thread)."""
        return {
            "status": "closed" if self._closed else "ok",
            "backend": self.name,
            "workers": [],
        }

    @property
    def expressions_served(self) -> list[str]:
        """Distinct expressions with a live reusable operator."""
        return self.executor.expressions()


class InsumServer(InlineBackend):
    """Queued, cached, multi-worker serving of sparse Einsum requests.

    This is the *threaded* :class:`repro.serve.ExecutorBackend`: a queue
    read by worker threads, each taking one request per read and handing
    it to the shared request routine (:meth:`InlineBackend.serve`).
    Construct it directly for :meth:`run_batch`, or (preferred) through
    ``Session(backend="threaded")``, which wraps it in futures.

    Parameters
    ----------
    num_workers:
        Worker threads draining the request queue.
    backend / config / auto_format:
        As for :class:`InlineBackend`.
    """

    name = "threaded"

    def __init__(
        self,
        num_workers: int = 4,
        backend: str = "inductor",
        config: Any | None = None,
        auto_format: bool = False,
    ):
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        super().__init__(backend, config, auto_format, workers=num_workers)
        self._queue: queue.SimpleQueue[Request | None] = queue.SimpleQueue()
        #: Makes "closed?" + queue put one step, so no request can land
        #: behind the shutdown tokens.
        self._lock = threading.Lock()
        self._workers = [
            threading.Thread(target=self._worker_loop, name=f"insum-worker-{i}", daemon=True)
            for i in range(num_workers)
        ]
        for worker in self._workers:
            worker.start()

    def close(self) -> None:
        """Stop the workers after the queue drains."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for _ in self._workers:
                self._queue.put(None)
        for worker in self._workers:
            worker.join()
        self._log.info("InsumServer closed", extra={"workers": len(self._workers)})

    def submit(self, request: Request) -> None:
        """Queue one request; its ``on_done`` receives the terminal result.

        The expression is a raw indirect Einsum over plain arrays, or a
        format-agnostic Einsum when a sparse operand is bound (or the
        server runs with ``auto_format=True``).  An accepted request
        always reaches ``on_done`` — the closed check and the queue put
        share one critical section with :meth:`close`.

        Raises
        ------
        SessionClosedError
            If the server has been closed.
        DeadlineExceededError
            When the request's deadline had already expired (dead work
            is never queued).
        """
        with self._lock:
            self._admit(request)
            self._queue.put(request)

    def _worker_loop(self) -> None:
        while True:
            request = self._queue.get()
            if request is None:
                return
            self.serve(request)

    def health(self) -> dict[str, Any]:
        """Liveness report for ``/v1/healthz``: per-worker thread aliveness."""
        workers = [
            {"worker": index, "alive": worker.is_alive()}
            for index, worker in enumerate(self._workers)
        ]
        healthy = not self._closed and all(entry["alive"] for entry in workers)
        return {
            "status": "ok" if healthy else ("closed" if self._closed else "degraded"),
            "backend": self.name,
            "workers": workers,
        }
