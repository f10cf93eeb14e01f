"""The serving core: one executor, one batch routine, and the threaded tier.

The compiler stack below this module is request-free: every entry point
takes one expression and one set of operands.  This module turns it into
a serving engine, in three layers:

* :class:`RequestExecutor` — the per-request execution core: long-lived
  per-expression operators (:class:`SparseEinsum` / :class:`Insum`) and
  expression classification.
* :class:`InlineBackend` — the one batch routine (:meth:`InlineBackend.serve`:
  claim, shed expired work, group by coalesce key, execute, record) and
  the inline tier, which serves a batch of one in the calling thread.
  The threaded tier's worker threads and every cluster worker's main
  thread serve through the same routine, which is what makes results
  bit-identical across serving backends.
* :class:`InsumServer` — the inline backend plus a queue and a pool of
  worker threads, implementing the :class:`repro.serve.ExecutorBackend`
  protocol (``submit(request)`` / ``try_cancel(request)`` / ``stats`` /
  ``close``) with same-plan request coalescing over each drained batch.

Requests arrive as :class:`~repro.runtime.request.Request` objects that
carry their own completion; :meth:`InlineBackend.run_batch` is the
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
    The batch routine of :class:`InlineBackend` is the one caller of
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
        #: expression -> (is_logical, rhs_factor_names, statement); used by
        #: the auto_format path to recognise dense operands it may
        #: sparsify and by coalescing to build widened statements.
        self._expression_info: dict[str, tuple[bool, tuple[str, ...], Any]] = {}
        #: expression -> widened (expression, stack_var), built on demand.
        self._widened: dict[str, tuple[str, str] | None] = {}

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

    def expression_info(self, expression: str) -> tuple[bool, tuple[str, ...], Any]:
        """Whether an expression is purely *logical* (no indirect accesses).

        Only logical expressions may have dense operands promoted to
        sparse formats (in a raw indirect Einsum, a sparse-looking 2-D
        array is storage, not a logical matrix) or be coalesced into
        widened batches.  Returns ``(logical, rhs_factor_names,
        statement)``; the statement is ``None`` when parsing failed.
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
            logical, rhs, statement = False, (), None
        with self._operators_lock:
            self._expression_info[expression] = (logical, rhs, statement)
        return logical, rhs, statement

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
            logical, rhs_names, _ = self.expression_info(expression)
            arrays = (np.asarray(operands[name]) for name in rhs_names if name in operands)
            has_sparse = logical and any(
                arr.ndim == 2 and np.count_nonzero(arr) < 0.5 * arr.size for arr in arrays
            )
        return self.operator_for(expression, has_sparse)(**operands)

    def widened_for(self, expression: str) -> tuple[str, str] | None:
        """The widened (stacked) expression for one logical expression."""
        with self._operators_lock:
            if expression in self._widened:
                return self._widened[expression]
        from repro.engine.coalesce import widen_expression

        _, _, statement = self.expression_info(expression)
        widened: tuple[str, str] | None
        try:
            widened = widen_expression(statement) if statement is not None else None
        except Exception:  # noqa: BLE001 — fall back to per-request execution
            widened = None
        with self._operators_lock:
            self._widened[expression] = widened
        return widened

    def coalesced_operator_for(self, expression: str, widened_expression: str) -> SparseEinsum:
        """The long-lived operator executing coalesced batches of one expression."""
        key = (expression, "coalesced")
        with self._operators_lock:
            operator = self._operators.get(key)
            if operator is None:
                operator = SparseEinsum(
                    widened_expression, backend=self.backend, config=self.config
                )
                self._operators[key] = operator
            return operator

    def expressions(self) -> list[str]:
        """Distinct expressions with a live reusable operator."""
        with self._operators_lock:
            return sorted({expression for expression, _ in self._operators})


class InlineBackend:
    """Synchronous serving over one :class:`RequestExecutor`: the inline
    tier, and the one batch routine every tier executes through.

    :meth:`serve` takes accepted requests and, in the calling thread,
    claims them, groups them by coalesce key, executes singles and widened
    groups (shedding a request that has expired by its turn) and records
    every result.  Its three callers: :meth:`submit` here, which serves a
    batch of one before returning (the ``"inline"`` tier, the
    zero-concurrency baseline); :class:`InsumServer`'s worker threads, on
    each batch they drain; and a cluster worker's main thread
    (:mod:`repro.cluster.worker`), on each batch of envelopes it drains.

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
    coalesce / coalesce_max:
        Same-plan coalescing within a batch (see :class:`InsumServer`); a
        batch of one never coalesces.
    workers:
        The parallelism reported as ``ServeStats.workers``.
    """

    #: The tier label of the window and of the deadline counter.
    name = "inline"

    def __init__(
        self,
        backend: str = "inductor",
        config: Any | None = None,
        auto_format: bool = False,
        coalesce: bool = True,
        coalesce_max: int = 16,
        workers: int = 1,
    ):
        if coalesce_max < 2:
            raise ValueError(f"coalesce_max must be >= 2, got {coalesce_max}")
        self.coalesce = bool(coalesce)
        self.coalesce_max = int(coalesce_max)
        self.executor = RequestExecutor(backend=backend, config=config, auto_format=auto_format)
        self._ids = itertools.count()
        #: The measurement window; a cluster worker reads its counters.
        self.window = ServingWindow(tier=self.name, workers=workers)
        self._closed = False
        self._log = get_logger("runtime.server")
        self._m_deadline = get_registry().counter(
            "repro_deadline_expired_total",
            "Requests that exceeded their deadline, by serving tier.",
            backend=self.name,
        )

    # -- lifecycle ----------------------------------------------------------
    def close(self) -> None:
        """Refuse further submits (inline holds no threads or queues)."""
        self._closed = True

    def __enter__(self) -> "InlineBackend":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- the ExecutorBackend protocol ---------------------------------------
    def submit(self, request: Request) -> None:
        """Serve one request now; its ``on_done`` runs before this returns.
        Raises :class:`SessionClosedError` once closed and
        :class:`DeadlineExceededError` for an already expired request."""
        self._admit(request)
        self.serve([request])

    def _admit(self, request: Request) -> None:
        """Refuse a request this tier cannot take (closed, or already
        expired: dead work is never accepted), else :meth:`accept` it."""
        if self._closed:
            raise SessionClosedError(f"the {self.name} backend is closed")
        if request.expired():
            raise DeadlineExceededError("request exceeded its deadline before it was accepted")
        self.accept(request)

    def accept(self, request: Request, request_id: int | None = None) -> None:
        """Take one request towards :meth:`serve`: stamp its trace's
        ``queued``, number it (``request_id`` when the caller already has
        one) and open the window at its submission."""
        if request.trace is not None:
            request.trace.stamp("queued")
        request.accept(next(self._ids) if request_id is None else request_id)
        self.window.open_at(request.submitted_at)

    def try_cancel(self, request: Request) -> bool:
        """Cancel a request not yet claimed by :meth:`serve`.

        Returns True when the request was still queued: it will never
        execute, and its ``on_done`` receives a
        :class:`~repro.errors.FutureCancelledError` result (not counted
        as completed or failed).  Returns False once it is claimed (or
        already finished) — the result will arrive normally.
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

        The synchronous helper over :meth:`submit` (see
        :func:`repro.runtime.request.run_batch`); new code should prefer
        :meth:`repro.serve.Session.map_batches`, which streams results
        with a bounded in-flight window.
        """
        return runtime_request.run_batch(self, requests, timeout)

    # -- the batch routine --------------------------------------------------
    def serve(self, batch: list[Request]) -> None:
        """Claim, group by coalesce key, execute and record accepted requests.

        Groups of one (and requests that cannot coalesce) run through the
        ordinary per-request path; larger groups execute as one widened
        stacked Einsum.  First-arrival order is preserved across groups,
        and a request that expired while earlier ones executed is shed
        just before its own turn.
        """
        # A cancelled request was already recorded by try_cancel.
        batch = [request for request in batch if request.claim()]
        groups: dict[tuple, tuple[list[Request], Any]] = {}
        order: list[tuple[list[Request], Any]] = []
        for request in batch:
            ticket = self._coalesce_ticket(request) if len(batch) > 1 else None
            if ticket is None:
                order.append(([request], None))
            elif ticket.key in groups:
                groups[ticket.key][0].append(request)
            else:
                groups[ticket.key] = ([request], ticket)
                order.append(groups[ticket.key])
        for requests, ticket in order:
            for start in range(0, len(requests), self.coalesce_max):
                chunk = [r for r in requests[start : start + self.coalesce_max] if self._live(r)]
                if len(chunk) == 1:
                    self._process_one(chunk[0])
                elif chunk:
                    self._execute_group(chunk, ticket)

    def _live(self, request: Request) -> bool:
        """False when ``request`` expired: it records its deadline error
        instead of spending time on output nobody can use."""
        if not request.expired():
            return True
        self._record(
            request,
            request.failed(deadline_error(request.request_id, "queue"), time.perf_counter()),
        )
        return False

    def _process_one(self, request: Request) -> None:
        """Execute one request through the per-request path and record it."""
        started = clock()
        output = error = None
        try:
            output = self.executor.execute(request.expression, request.operands)
        except Exception as caught:  # noqa: BLE001 — a bad request must not kill the worker
            error = caught
            self._log.info(
                "request failed",
                extra={
                    "request_id": request.request_id,
                    "expression": request.expression,
                    "error": repr(error),
                    "trace_id": request.trace.trace_id if request.trace is not None else None,
                },
            )
        self._record(
            request, request.executed(output, error, started, clock(), coalesced=False)
        )

    def _coalesce_ticket(self, request: Request):
        """Coalescing analysis of one request (``None`` = not coalescible).

        Coalescing applies to logical expressions over an already-formatted
        sparse operand; ``auto_format`` servers keep the per-request tuner
        path, whose format decisions a batched execution must not bypass.
        """
        if not self.coalesce or self.executor.auto_format:
            return None
        from repro.engine.coalesce import coalesce_key

        logical, _, statement = self.executor.expression_info(request.expression)
        try:
            return coalesce_key(request.expression, statement, logical, request.operands)
        except Exception:  # noqa: BLE001 — analysis must not fail a request
            return None

    def _execute_group(self, requests: list[Request], ticket: Any) -> None:
        """Execute same-key requests as one widened stacked Einsum.

        Any failure falls back to per-request execution, so coalescing can
        never turn a servable request into an error.
        """
        from repro.engine.coalesce import split_results, stack_group

        started = clock()
        try:
            widened = self.executor.widened_for(requests[0].expression)
            if widened is None:
                raise LookupError("expression cannot be widened")
            # Pad to the next power of two: bounded plan-signature variety
            # (log2(coalesce_max) sizes per expression) with at most 2x
            # padded compute, instead of always paying the full width.
            pad_to = 2
            while pad_to < len(requests):
                pad_to *= 2
            stacked = stack_group(
                [request.operands for request in requests],
                ticket.sparse_name,
                pad_to=min(pad_to, self.coalesce_max),
            )
            operator = self.executor.coalesced_operator_for(requests[0].expression, widened[0])
            batched = operator(**stacked)
            outputs = split_results(np.asarray(batched), len(requests))
        except Exception:  # noqa: BLE001 — coalescing is an optimisation, never a failure
            for request in requests:
                self._process_one(request)
            return
        finished = clock()
        self.window.observe_batch(len(requests))
        for request, output in zip(requests, outputs):
            self._record(
                request,
                request.executed(
                    output, None, started, finished, coalesced=True, batch_size=len(requests)
                ),
            )

    def _record(self, request: Request, result: InsumResult) -> None:
        """Publish one terminal result and update the serving counters."""
        if isinstance(result.error, DeadlineExceededError):
            self._m_deadline.inc()
        if isinstance(result.error, FutureCancelledError):
            self.window.count("cancelled")
        else:
            self.window.observe(result.ok, result.latency_ms, time.perf_counter())
            obs_trace.maybe_log_trace(result.trace)
        request.on_done(result)

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
    """Batched, cached, multi-worker serving of sparse Einsum requests.

    This is the *threaded* :class:`repro.serve.ExecutorBackend`: a queue
    drained by worker threads, each handing what it drains to the shared
    batch routine (:meth:`InlineBackend.serve`).  Construct it directly
    for :meth:`run_batch`, or (preferred) through
    ``Session(backend="threaded")``, which wraps it in futures.

    Parameters
    ----------
    num_workers:
        Worker threads draining the request queue.
    backend / config / auto_format:
        As for :class:`InlineBackend`.
    coalesce:
        Same-plan request coalescing (on by default): a worker drains the
        queue opportunistically and executes requests that share one
        logical expression and one sparse *pattern* (the same live format
        instance) as a single widened
        :class:`~repro.runtime.stacked.StackedSparse` Einsum, instead of
        one kernel per request.  Results are the per-request results bit
        for bit (``tests/runtime/test_server_coalesce.py``).
    coalesce_max:
        Largest group executed as one batch.  Batches are zero-padded to
        the next power of two (capped here), so each expression compiles
        at most ``log2(coalesce_max)`` stacked plans while padded compute
        stays under 2x.
    """

    name = "threaded"

    def __init__(
        self,
        num_workers: int = 4,
        backend: str = "inductor",
        config: Any | None = None,
        auto_format: bool = False,
        coalesce: bool = True,
        coalesce_max: int = 16,
    ):
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        super().__init__(backend, config, auto_format, coalesce, coalesce_max, workers=num_workers)
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
            batch = [request]
            if self.coalesce:
                # Opportunistic drain: whatever else is already queued (up
                # to a bounded window) is grouped by coalesce key in serve().
                limit = 2 * self.coalesce_max
                while len(batch) < limit:
                    try:
                        extra = self._queue.get_nowait()
                    except queue.Empty:
                        break
                    if extra is None:
                        # Another worker's shutdown token: hand it back.
                        self._queue.put(None)
                        break
                    batch.append(extra)
            self.serve(batch)

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
