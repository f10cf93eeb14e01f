"""InsumServer: the threaded serving tier behind :class:`repro.serve.Session`.

The compiler stack below this module is request-free: every entry point
takes one expression and one set of operands.  This module turns it into
a serving engine, split into two layers:

* :class:`RequestExecutor` — the per-request execution core: long-lived
  per-expression operators (:class:`SparseEinsum` / :class:`Insum`),
  expression classification, and tuner-driven re-formatting.  The inline
  backend of :mod:`repro.serve`, the threaded ``InsumServer``, and every
  cluster worker's inner server all execute through this one code path —
  which is what makes results bit-identical across serving backends.
* :class:`InsumServer` — a queue and a pool of worker threads over the
  executor, implementing the :class:`repro.serve.ExecutorBackend`
  protocol (``submit(request)`` / ``try_cancel(request)`` / ``stats`` /
  ``close``) plus same-plan request coalescing.

Requests arrive as :class:`~repro.runtime.request.Request` objects that
carry their own completion; :meth:`InsumServer.run_batch` is the
synchronous convenience over that protocol, and
:class:`repro.serve.Session` the futures-based front door.
"""

from __future__ import annotations

import itertools
import queue
import threading
import time
from dataclasses import dataclass, field
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


@dataclass
class _OperatorSlot:
    operator: Any
    lock: threading.Lock = field(default_factory=threading.Lock)


class RequestExecutor:
    """The per-request execution core shared by every serving backend.

    Owns the long-lived reusable operators (one per distinct expression),
    the expression-classification cache, and the tuner's per-request
    re-formatting when ``auto_format`` is on.  ``InsumServer`` (threaded),
    the cluster workers' inner servers, and the serve tier's inline
    backend all call :meth:`execute`, so a request produces the same bits
    no matter which tier served it.

    Parameters
    ----------
    backend / config / check_bounds:
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
        check_bounds: bool = True,
        auto_format: bool = False,
    ):
        self.backend = backend
        self.config = config
        self.check_bounds = check_bounds
        self.auto_format = bool(auto_format)
        self._operators: dict[tuple[str, str], _OperatorSlot] = {}
        self._operators_lock = threading.Lock()
        #: expression -> (is_logical, rhs_factor_names, statement); used by
        #: the auto_format path to recognise dense operands it may
        #: sparsify and by coalescing to build widened statements.
        self._expression_info: dict[str, tuple[bool, tuple[str, ...], Any]] = {}
        #: expression -> widened (expression, stack_var), built on demand.
        self._widened: dict[str, tuple[str, str] | None] = {}

    def operator_for(self, expression: str, has_sparse: bool) -> _OperatorSlot:
        """The long-lived reusable operator for one expression.

        Format-agnostic requests (a sparse operand present, or the
        executor running with ``auto_format``) get a
        :class:`SparseEinsum`; raw indirect Einsums get an :class:`Insum`.
        """
        key = (expression, "sparse" if has_sparse else "indirect")
        with self._operators_lock:
            slot = self._operators.get(key)
            if slot is None:
                if has_sparse:
                    operator: Any = SparseEinsum(
                        expression,
                        backend=self.backend,
                        config=self.config,
                        check_bounds=self.check_bounds,
                        format="auto" if self.auto_format else None,
                    )
                else:
                    operator = Insum(
                        expression,
                        backend=self.backend,
                        config=self.config,
                        check_bounds=self.check_bounds,
                    )
                slot = _OperatorSlot(operator=operator)
                self._operators[key] = slot
            return slot

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

        This is the single per-request code path of every serving tier:
        classify the expression, optionally promote/re-format the sparse
        operand through the tuner, and run the cached per-expression
        operator.
        """
        has_instance = any(isinstance(value, SparseFormat) for value in operands.values())
        promoted_name: str | None = None
        if not has_instance and self.auto_format:
            logical, rhs_names, _ = self.expression_info(expression)
            if logical:
                for name in rhs_names:
                    value = operands.get(name)
                    arr = np.asarray(value) if value is not None else None
                    if (
                        arr is not None
                        and arr.ndim == 2
                        and np.count_nonzero(arr) < 0.5 * arr.size
                    ):
                        promoted_name = name
                        break
        has_sparse = has_instance or promoted_name is not None
        if has_sparse and self.auto_format:
            logical, rhs_names, _ = self.expression_info(expression)
            # Re-format the sparse (or promoted dense) operand once, here —
            # decisions are cached per regime bucket — so the per-expression
            # operator's own auto pass sees a matching format and skips
            # both the density rescan and a second conversion.  The width
            # is inferred from the request's dense operand so the decision
            # optimises for the actual workload, matching what
            # SparseEinsum._infer_n_cols would derive.
            if logical:
                from repro.tuner.auto import auto_format as tuner_auto_format

                targets = (
                    [promoted_name]
                    if promoted_name is not None
                    else [
                        name
                        for name, value in operands.items()
                        if isinstance(value, SparseFormat)
                        and value.format_name != "StackedSparse"
                    ]
                )
                if targets:
                    n_cols = 64
                    for name in rhs_names:
                        value = operands.get(name)
                        if name in targets or value is None or isinstance(value, SparseFormat):
                            continue
                        arr = np.asarray(value)
                        if arr.ndim >= 2:
                            n_cols = int(arr.shape[-1])
                            break
                    operands = dict(operands)
                    for name in targets:
                        operands[name] = tuner_auto_format(operands[name], n_cols=n_cols)
        slot = self.operator_for(expression, has_sparse)
        with slot.lock:
            return slot.operator(**operands)

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

    def coalesced_operator_for(self, expression: str, widened_expression: str) -> _OperatorSlot:
        """The long-lived operator executing coalesced batches of one expression."""
        key = (expression, "coalesced")
        with self._operators_lock:
            slot = self._operators.get(key)
            if slot is None:
                slot = _OperatorSlot(
                    operator=SparseEinsum(
                        widened_expression,
                        backend=self.backend,
                        config=self.config,
                        check_bounds=self.check_bounds,
                    )
                )
                self._operators[key] = slot
            return slot

    def expressions(self) -> list[str]:
        """Distinct expressions with a live reusable operator."""
        with self._operators_lock:
            return sorted({expression for expression, _ in self._operators})


class InsumServer:
    """Batched, cached, multi-worker serving of sparse Einsum requests.

    This is the *threaded* :class:`repro.serve.ExecutorBackend`: a queue
    drained by worker threads over one shared :class:`RequestExecutor`.
    Construct it directly for :meth:`run_batch`, or (preferred) through
    ``Session(backend="threaded")``, which wraps it in futures.

    Parameters
    ----------
    num_workers:
        Worker threads draining the request queue.
    backend / config / check_bounds:
        Defaults for every operator the server builds.
    auto_format:
        When True, format-agnostic requests route through the
        :mod:`repro.tuner` auto path (``format="auto"``): each request's
        sparse operand is profiled, the tuner's Section 4.2 rule picks the
        storage format per sparsity regime (decisions are memoised by
        profile bucket), and each chosen format compiles once — so one
        server adapts across heterogeneous request streams.  Sparse
        operands may then also be plain dense arrays.
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

    def __init__(
        self,
        num_workers: int = 4,
        backend: str = "inductor",
        config: Any | None = None,
        check_bounds: bool = True,
        auto_format: bool = False,
        coalesce: bool = True,
        coalesce_max: int = 16,
    ):
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        if coalesce_max < 2:
            raise ValueError(f"coalesce_max must be >= 2, got {coalesce_max}")
        self.backend = backend
        self.config = config
        self.check_bounds = check_bounds
        self.auto_format = bool(auto_format)
        self.coalesce = bool(coalesce)
        self.coalesce_max = int(coalesce_max)
        self.executor = RequestExecutor(
            backend=backend,
            config=config,
            check_bounds=check_bounds,
            auto_format=auto_format,
        )

        self._queue: queue.SimpleQueue[Request | None] = queue.SimpleQueue()
        #: Makes "closed?" + queue put one step, so no request can land
        #: behind the shutdown tokens.
        self._lock = threading.Lock()
        self._ids = itertools.count()
        #: The measurement window; a cluster worker reads its counters.
        self.window = ServingWindow(tier="threaded", workers=num_workers)
        self._closed = False
        self._log = get_logger("runtime.server")
        self._m_deadline = get_registry().counter(
            "repro_deadline_expired_total",
            "Requests that exceeded their deadline, by serving tier.",
            backend="threaded",
        )

        self._workers = [
            threading.Thread(target=self._worker_loop, name=f"insum-worker-{i}", daemon=True)
            for i in range(num_workers)
        ]
        for worker in self._workers:
            worker.start()

    # -- lifecycle ----------------------------------------------------------
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

    def __enter__(self) -> "InsumServer":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- the ExecutorBackend protocol ---------------------------------------
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
            if self._closed:
                raise SessionClosedError("InsumServer is closed")
            if request.expired():
                raise DeadlineExceededError(
                    "request exceeded its deadline before it was enqueued"
                )
            if request.trace is not None:
                request.trace.stamp("queued")
            request.accept(next(self._ids))
            self.window.open_at(request.submitted_at)
            self._queue.put(request)

    def try_cancel(self, request: Request) -> bool:
        """Cancel a request no worker has claimed yet.

        Returns True when the request was still queued: it will never
        execute, and its ``on_done`` receives a
        :class:`~repro.errors.FutureCancelledError` result (not counted
        as completed or failed).  Returns False once a worker has taken
        the request (or it already finished) — the result will arrive
        normally.
        """
        if not request.cancel():
            return False
        self._record(
            request,
            request.failed(
                FutureCancelledError(
                    f"request {request.request_id} was cancelled before dispatch"
                )
            ),
        )
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

    # -- execution ----------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            request = self._queue.get()
            if request is None:
                return
            batch = [request]
            if self.coalesce:
                # Opportunistic drain: whatever else is already queued (up
                # to a bounded window) is grouped by coalesce key below.
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
            self._process_batch(batch)

    def _claim(self, request: Request) -> bool:
        """Claim one dequeued request for execution; False when cancelled
        (already recorded by :meth:`try_cancel`) or expired (an expired
        request records its deadline error instead of spending worker
        time on output nobody can use)."""
        if not request.claim():
            return False
        if request.expired():
            self._record(
                request,
                request.failed(
                    deadline_error(request.request_id, "queue"), time.perf_counter()
                ),
            )
            return False
        return True

    def _process_batch(self, batch: list[Request]) -> None:
        """Group a drained batch by coalesce key and execute the groups.

        Groups of one (and requests that cannot coalesce) run through the
        ordinary per-request path; larger groups execute as one widened
        stacked Einsum.  First-arrival order is preserved across groups.
        """
        batch = [request for request in batch if self._claim(request)]
        groups: dict[tuple, tuple[list[Request], Any]] = {}
        order: list[tuple[str, Any]] = []
        for request in batch:
            ticket = self._coalesce_ticket(request) if len(batch) > 1 else None
            if ticket is None:
                order.append(("single", request))
                continue
            bucket = groups.get(ticket.key)
            if bucket is None:
                groups[ticket.key] = ([request], ticket)
                order.append(("group", ticket.key))
            else:
                bucket[0].append(request)
        for kind, payload in order:
            if kind == "single":
                self._process_one(payload)
                continue
            requests, ticket = groups[payload]
            for start in range(0, len(requests), self.coalesce_max):
                chunk = requests[start : start + self.coalesce_max]
                if len(chunk) == 1:
                    self._process_one(chunk[0])
                else:
                    self._execute_group(chunk, ticket)

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
        if not self.coalesce or self.auto_format:
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
            slot = self.executor.coalesced_operator_for(requests[0].expression, widened[0])
            with slot.lock:
                batched = slot.operator(**stacked)
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
        """Liveness report for ``/v1/healthz``: per-worker thread aliveness."""
        workers = [
            {"worker": index, "alive": worker.is_alive()}
            for index, worker in enumerate(self._workers)
        ]
        healthy = not self._closed and all(entry["alive"] for entry in workers)
        return {
            "status": "ok" if healthy else ("closed" if self._closed else "degraded"),
            "backend": "threaded",
            "workers": workers,
        }

    @property
    def expressions_served(self) -> list[str]:
        """Distinct expressions with a live reusable operator."""
        return self.executor.expressions()
