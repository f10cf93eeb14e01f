"""ClusterServer: multi-process serving that escapes the GIL.

``InsumServer`` (PR 1–3) serves every request inside one interpreter:
its engine-specialized kernels are fast, but the Python framework around
them — queueing, rewriting, result bookkeeping — serializes
on a single GIL.  ``ClusterServer`` implements the exact same
:class:`repro.serve.ExecutorBackend` protocol
(``submit(request)`` / ``try_cancel(request)``) and
moves execution into a pool of worker *processes*, each serving on its
main thread through the same request routine
(:meth:`~repro.runtime.server.InlineBackend.serve`; specialization intact,
one call per request), and sharing the inline tier's
:class:`~repro.runtime.server.TierCore` parent-side (ids, window, deadline
counter, cancellation, result publication):

* **Transport** — dense operands and results cross as raw bytes through
  per-worker :class:`~repro.cluster.shm.ShmRing` shared-memory rings;
  a sparse operand ships once, as its named arrays, and is cached
  worker-side as one live instance; repeated metadata arrays are cached
  by identity token (:mod:`repro.cluster.codec`).
* **Routing** — requests are assigned by expression + pattern
  fingerprint (:mod:`repro.cluster.router`), sticky per key, so each
  key's traffic keeps hitting the caches it warmed.
* **Admission control** — total in-flight work is bounded; over-limit
  submissions block (bounded-queue backpressure) or fail fast with
  :class:`~repro.cluster.admission.ClusterBusyError` carrying a
  ``retry_after`` estimate.
* **Health** — a monitor thread watches process liveness and the
  workers' shared-memory heartbeats; a dead worker is replaced and its
  in-flight requests are requeued to the survivors (bounded by
  ``max_attempts``, so a poison request surfaces as an error instead of
  crashing workers forever).
* **Stats** — :meth:`stats` returns the same
  :class:`~repro.runtime.stats.ServeStats` as every tier, from the
  parent's own :class:`~repro.runtime.stats.ServingWindow`: outcomes,
  latency and throughput are measured here, and the plan-cache
  counters are the cumulative totals each worker attaches to its
  responses — reporting never talks to a worker.

See ``docs/SERVING.md`` for the architecture and failure model.
"""

from __future__ import annotations

import multiprocessing
import operator
import os
import secrets
import select
import threading
import time
from dataclasses import dataclass, field
from typing import Any

from repro.cluster.admission import AdmissionController, ClusterBusyError
from repro.cluster.codec import OperandEncoder, decode_result
from repro.cluster.messages import ResponseEnvelope
from repro.cluster.router import Router, affinity_key
from repro.cluster.shm import RingAborted, ShmRing
from repro.cluster.worker import worker_main
from repro.errors import (
    ControlThreadError,
    DeadlineExceededError,
    FutureCancelledError,
    PoisonedRequestError,
    SessionClosedError,
    WorkerCrashedError,
)
from repro.obs import resources as obs_resources
from repro.obs.metrics import get_registry
from repro.resilience.deadline import deadline_error, expired_result
from repro.resilience.supervisor import PoisonQuarantine, WorkerSupervisor, poison_key
from repro.runtime.request import InsumResult, Request
from repro.runtime.server import TierCore
from repro.runtime.stats import INTERIOR, ServeStats

#: Default per-direction ring capacity (bytes).
RING_CAPACITY = 8 * 1024 * 1024

__all__ = ["ClusterServer", "WorkerCrashedError", "RING_CAPACITY"]

#: Held from a worker's ``Pipe()`` until the parent closes its copy of the
#: worker's end: a worker forked meanwhile (by any cluster) would inherit that
#: copy, and the collector would see no EOF when its own worker dies.
_SPAWN_LOCK = threading.Lock()


@dataclass
class _WorkerHandle:
    """Everything the parent holds about one worker incarnation.

    ``conn`` is the parent end of the incarnation's duplex pipe: a
    submitting thread encodes and sends each envelope under ``send_lock``,
    so the encoder's cache mirror changes in the order the worker reads
    envelopes, and the incarnation's collector thread reads responses
    until the EOF the worker's death makes (the worker holds the only copy
    of the other end).
    """

    worker_id: int
    incarnation: int
    process: Any
    conn: Any
    req_ring: ShmRing
    resp_ring: ShmRing
    encoder: OperandEncoder
    started_at: float
    collector: Any = None
    send_lock: threading.Lock = field(default_factory=threading.Lock)
    #: Set (under the server's state condition) the moment a restart
    #: decides to replace this incarnation — before the in-flight
    #: snapshot — so a concurrent dispatch can never register into an
    #: outstanding map that has already been harvested for requeue.
    retired: bool = False
    #: wire id -> the request this incarnation owns, guarded by the
    #: server's state condition.
    outstanding: dict[int, Request] = field(default_factory=dict)
    #: Resource samples taken by the monitor thread (newest last).
    prev_sample: Any = None
    last_sample: Any = None
    #: The :data:`~repro.runtime.stats.INTERIOR` counters this incarnation
    #: last reported (cumulative since it started), guarded by the
    #: server's state condition.
    counters: tuple[int, ...] = (0,) * len(INTERIOR)

    def alive(self) -> bool:
        return self.process.is_alive()


class ClusterServer(TierCore):
    """Multi-process serving of sparse Einsum requests over shared memory.

    Parameters
    ----------
    num_workers:
        Worker processes in the pool.
    worker_threads:
        Threads per worker process: ``None`` or 1, the only value (each
        worker executes on its main thread; ``num_workers`` scales).
    backend / config / auto_format:
        Forwarded to every worker's request routine (see
        :class:`~repro.runtime.server.InlineBackend`).
    ring_capacity:
        Bytes per shared-memory ring (one request + one response ring
        per worker).
    max_inflight / admission / block_timeout:
        Admission control: the in-flight bound and the over-limit policy
        (``"block"`` or ``"reject"`` — see
        :class:`~repro.cluster.admission.AdmissionController`).
    max_attempts:
        Dispatch attempts per request across worker crashes before the
        request completes with a :class:`WorkerCrashedError`.
    health_interval / heartbeat_timeout:
        Monitor cadence and the heartbeat staleness (seconds) beyond
        which a live-but-silent worker is declared wedged and replaced.
        Workers beat per pipe poll and as each request completes, so
        ``heartbeat_timeout`` must exceed the longest legitimate *single
        request* — a slower request is mistaken for a
        wedge, its worker killed, and after ``max_attempts`` redispatches
        the request fails with :class:`WorkerCrashedError`.  Raise the
        timeout (or pass ``None`` or 0 to disable the staleness check —
        process death still triggers a restart) when serving expensive
        kernels.
    restart_budget / restart_window:
        The :class:`~repro.resilience.WorkerSupervisor` token bucket: at
        most ``restart_budget`` restarts per worker slot per
        ``restart_window`` seconds.  A slot that exhausts the budget is
        permanently dead — dropped from routing, reported by
        :meth:`health` — instead of crash-looping; ``restart_budget=0``
        retires a slot on its first crash.
    """

    name = "cluster"

    def __init__(
        self,
        num_workers: int = 2,
        worker_threads: int | None = 1,
        backend: str = "inductor",
        config: Any | None = None,
        auto_format: bool = False,
        ring_capacity: int = RING_CAPACITY,
        max_inflight: int = 1024,
        admission: str = "block",
        block_timeout: float = 30.0,
        max_attempts: int = 3,
        health_interval: float = 0.25,
        heartbeat_timeout: float | None = 30.0,
        restart_budget: int = 8,
        restart_window: float = 60.0,
    ):
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        if worker_threads not in (None, 1):
            raise ValueError(f"worker_threads must be 1, got {worker_threads}")
        super().__init__(num_workers, "cluster.server")
        self.num_workers = int(num_workers)
        self.ring_capacity = int(ring_capacity)
        self.max_attempts = int(max_attempts)
        self.health_interval = float(health_interval)
        self.heartbeat_timeout = heartbeat_timeout or None
        self._server_kwargs = dict(backend=backend, config=config, auto_format=auto_format)

        # Fork where available (workers inherit warm module state).
        methods = multiprocessing.get_all_start_methods()
        start_method = "fork" if "fork" in methods else "spawn"
        self._ctx = multiprocessing.get_context(start_method)
        self._forked = start_method == "fork"
        self._session = f"{os.getpid():x}{secrets.token_hex(3)}"

        self.admission = AdmissionController(
            max_inflight=max_inflight, policy=admission, block_timeout=block_timeout
        )
        self.router = Router(self.num_workers)
        self.supervisor = WorkerSupervisor(budget=restart_budget, window=restart_window)
        self.quarantine = PoisonQuarantine()
        #: Serializes worker restart/retire against close()'s teardown —
        #: a restart that loses the race to close() would spawn a worker
        #: (and shm segments) nobody ever reclaims.
        self._restart_lock = threading.Lock()
        #: The ControlThreadError that killed the control plane, if any.
        self._control_error: ControlThreadError | None = None

        self._state = threading.Condition()
        #: Requests accepted and not yet recorded (what close() drains).
        self._unfinished = 0
        self._loads = [0] * self.num_workers
        #: Per slot, guarded by the state condition: the interior counters
        #: of the incarnations already replaced, the per-slot totals at the
        #: last reset_stats(), and the window's completions.  A window is
        #: a subtraction from the mark, so it outlives the worker it counts.
        self._replaced_counters = [(0,) * len(INTERIOR)] * self.num_workers
        self._counter_marks = list(self._replaced_counters)
        self._worker_completed = [0] * self.num_workers
        self._rejected_mark = 0
        registry = get_registry()
        self._m_poisoned = registry.counter(
            "repro_poisoned_requests_total",
            "Submissions failed fast by the poison quarantine.",
        )
        self._m_dead_workers = registry.gauge(
            "repro_dead_workers",
            "Worker slots retired permanently after exhausting their restart budget.",
        )

        self._stopping = threading.Event()

        self._handles: list[_WorkerHandle] = []
        try:
            for worker_id in range(self.num_workers):
                self._handles.append(self._start_worker(worker_id, incarnation=0))
                self._start_collector(self._handles[-1])
        except BaseException:
            for handle in self._handles:
                self._teardown_handle(handle)
            raise

        self._monitor = threading.Thread(
            target=self._monitor_loop, name="cluster-monitor", daemon=True
        )
        self._monitor.start()

    # -- worker lifecycle ---------------------------------------------------
    def _segment_name(self, worker_id: int, incarnation: int, direction: str) -> str:
        return f"rcl{self._session}w{worker_id}i{incarnation}{direction}"

    def _start_worker(self, worker_id: int, incarnation: int) -> _WorkerHandle:
        names = [self._segment_name(worker_id, incarnation, d) for d in "qr"]
        opened: list[Any] = []  # closed again if any step fails
        try:
            for name in names:
                opened.append(ShmRing.create(name, self.ring_capacity))
            with _SPAWN_LOCK:
                conn, child = self._ctx.Pipe()
                opened.append(conn)
                process = self._ctx.Process(
                    target=worker_main,
                    name=f"cluster-worker-{worker_id}",
                    args=(worker_id, incarnation, *names, child, self._server_kwargs, self._forked),
                    daemon=True,
                )
                try:
                    process.start()
                finally:
                    child.close()
        except BaseException:
            for resource in opened:
                resource.close()
            raise
        req_ring, resp_ring = opened[:2]
        return _WorkerHandle(
            worker_id=worker_id,
            incarnation=incarnation,
            process=process,
            conn=conn,
            req_ring=req_ring,
            resp_ring=resp_ring,
            encoder=OperandEncoder(req_ring),
            started_at=time.time(),
        )

    def _start_collector(self, handle: _WorkerHandle) -> None:
        handle.collector = threading.Thread(
            target=self._collect_loop,
            args=(handle,),
            name=f"cluster-collect-{handle.worker_id}.{handle.incarnation}",
            daemon=True,
        )
        handle.collector.start()

    def _teardown_handle(self, handle: _WorkerHandle, join_timeout: float = 2.0) -> None:
        """Stop one worker incarnation and reclaim its IPC resources, in order:
        the process; its collector, which reads the pipe to the EOF the
        process's death makes; the rings, which no response can then still
        be decoding from; the pipe.  Never called on a collector thread.  The
        handle is retired or the server stopping, so a sender gives up its
        ring wait and ``send_lock`` comes free: no encode is mid-write."""
        if handle.process.is_alive():
            handle.process.terminate()
        handle.process.join(timeout=join_timeout)
        if handle.process.is_alive():
            handle.process.kill()
            handle.process.join(timeout=join_timeout)
        if handle.collector is not None:
            handle.collector.join()
        with handle.send_lock:
            handle.req_ring.close()
            handle.conn.close()
        handle.resp_ring.close()

    def _handle_worker_failure(self, worker_id: int) -> None:
        """Rule on one detected worker death via the restart budget.

        ``"restart"`` replaces the incarnation now; ``"defer"`` leaves the
        dead handle in place until the supervisor's backoff elapses (the
        monitor re-polls every ``health_interval``; dispatches bounce off
        the retiring handle to the survivors meanwhile); ``"exhausted"``
        retires the slot permanently.
        """
        with self._restart_lock:
            if self._stopping.is_set():
                return
            decision = self.supervisor.decide(worker_id)
            if decision == "defer":
                # Harvest the dead incarnation's work right away — only
                # the replacement spawn waits for the backoff.
                self._redispatch(self._harvest_incarnation(worker_id), worker_id)
                return
            if decision == "restart":
                self._restart_worker(worker_id)
            else:
                self._retire_worker_slot(worker_id)

    def _harvest_incarnation(self, worker_id: int) -> list[Request]:
        """Retire the slot's current handle and collect its in-flight work.

        Requeueing the harvest is the *caller's* job, at the point where a
        redispatch target exists: a restart requeues after the replacement
        is installed (so a single-worker pool redispatches to the fresh
        incarnation instead of bouncing off the retired handle), while
        defer/retire requeue immediately onto the survivors.
        """
        old = self._handles[worker_id]
        with self._state:
            already = old.retired
            old.retired = True
            stranded = list(old.outstanding.values())
            old.outstanding.clear()
            self._loads[worker_id] = 0
        if not already:
            self.router.forget_worker(worker_id)
        return stranded

    def _restart_worker(self, worker_id: int) -> None:
        """Replace a dead/wedged worker and requeue its in-flight requests."""
        old = self._handles[worker_id]
        stranded = self._harvest_incarnation(worker_id)
        self.window.count("restarts")
        self._log.warning(
            "restarting worker",
            extra={
                "worker": worker_id,
                "incarnation": old.incarnation,
                "pid": old.process.pid,
                "stranded": len(stranded),
            },
        )
        replacement = self._start_worker(worker_id, incarnation=old.incarnation + 1)
        with self._state:
            self._replaced_counters[worker_id] = self._cumulative_counters()[worker_id]
            self._handles[worker_id] = replacement
        self._start_collector(replacement)
        self._teardown_handle(old)
        self._redispatch(stranded, worker_id)

    def _retire_worker_slot(self, worker_id: int) -> None:
        """Permanently retire a slot whose restart budget is exhausted."""
        old = self._handles[worker_id]
        stranded = self._harvest_incarnation(worker_id)
        self.router.mark_dead(worker_id)
        self._redispatch(stranded, worker_id)
        self._m_dead_workers.set(len(self.supervisor.dead_workers))
        self._log.error(
            "worker slot retired: restart budget exhausted",
            extra={
                "worker": worker_id,
                "incarnation": old.incarnation,
                "healthy_workers": self.healthy_worker_count,
            },
        )
        self._teardown_handle(old)

    def _redispatch(self, stranded: list[Request], worker_id: int) -> None:
        """Requeue a harvested incarnation's work on a thread of its own.

        The thread that detects a failure never waits on a ring: a
        redispatch can block on a survivor's full ring, and when that
        survivor is wedged only the monitor can notice it.
        """

        def requeue_all() -> None:
            for request in stranded:
                self._requeue(request, exclude_worker=worker_id, crashed=True)

        if stranded:
            threading.Thread(
                target=requeue_all, name=f"cluster-redispatch-{worker_id}", daemon=True
            ).start()

    def _requeue(
        self, request: Request, exclude_worker: int | None, crashed: bool = False
    ) -> None:
        """Give a stranded request another attempt (or fail it out).

        ``crashed`` marks requeues caused by the owning worker's death
        (rather than a benign bounce off a retiring handle); a request
        whose every attempt crashed its worker is quarantined as poison
        when it fails out.  Once containment has run, the request fails
        with the containment error: nobody collects from the workers.
        """
        if self._control_error is not None:
            self._record(request, request.failed(self._control_error))
            return
        request.dispatches += 1
        if crashed:
            request.crashes += 1
        request.exclude_worker = exclude_worker
        if request.dispatches >= self.max_attempts:
            if request.crashes >= self.max_attempts:
                self.quarantine.record(poison_key(request.expression, request.operands))
            error = WorkerCrashedError(
                f"request {request.request_id} failed after "
                f"{request.dispatches} dispatch attempts (worker crashes)"
            )
            self._record(request, request.failed(error))
            return
        self.window.count("requeued")
        self._dispatch(request)

    # -- the ExecutorBackend protocol ---------------------------------------
    def submit(self, request: Request) -> None:
        """Admit one request and dispatch it on the calling thread (route,
        encode, send); its ``on_done`` receives the terminal result.

        Operand arrays are re-shipped if a worker crashes, so they must not
        be mutated between ``submit`` and the request's completion.
        Reusing a buffer *across* requests — refilling the same array with
        new values once the previous result has arrived — is fine: the
        transport cache is content-checksummed and re-ships changed bytes.

        Raises
        ------
        SessionClosedError
            If the server has been closed.
        ControlThreadError
            If a control thread has died: the backend can no longer
            guarantee progress, so it refuses new work outright.
        PoisonedRequestError
            When the request matches a quarantined poison key (its
            content already crashed a worker through every dispatch
            attempt); it fails fast instead of re-killing workers.
        DeadlineExceededError
            When the request's deadline expired before (or while
            blocking on) admission — the work is already dead, so no
            admission slot is spent on it.
        ClusterBusyError
            When admission control rejects the request (the cluster is at
            ``max_inflight`` and the policy is ``"reject"``, or the
            ``"block"`` timeout expired); ``retry_after`` estimates when
            to try again.
        """
        if self._closed:
            raise SessionClosedError("ClusterServer is closed")
        if self._control_error is not None:
            raise self._control_error
        trace, deadline = request.trace, request.deadline
        if request.expired():
            raise DeadlineExceededError(
                "request exceeded its deadline before admission"
            )
        if len(self.quarantine):
            # Only fingerprint operands once something is quarantined:
            # the key hashes operand content, too costly for the clean
            # hot path.
            if self.quarantine.contains(poison_key(request.expression, request.operands)):
                self._m_poisoned.inc()
                raise PoisonedRequestError(
                    "request matches a quarantined poison key "
                    f"(crashed workers on {self.max_attempts} earlier attempts)"
                )
        if trace is not None:
            trace.stamp("admission.enter")
        try:
            self.admission.acquire(
                wait_budget=None if deadline is None else deadline.remaining_s()
            )
        except ClusterBusyError:
            if request.expired():
                raise DeadlineExceededError(
                    "request exceeded its deadline while blocked on admission"
                ) from None
            raise
        if request.expired():
            self.admission.release()
            raise DeadlineExceededError(
                "request exceeded its deadline while blocked on admission"
            )
        if trace is not None:
            trace.stamp("admitted")
        with self._state:
            # Same critical section as close()'s flag flip: a request is
            # either counted into the drain or refused, never stranded.
            if self._closed:
                self.admission.release()
                raise SessionClosedError("ClusterServer is closed")
            self._unfinished += 1
        request.accept(next(self._ids))
        self.window.open_at(request.submitted_at)
        # A cancel that won the compare-and-set already recorded the request.
        if request.claim():
            self._dispatch(request)

    # -- dispatch -----------------------------------------------------------
    def _dispatch(self, request: Request) -> None:
        """Route, encode and send one claimed request; never raises.

        Runs on the submitting thread, or on a crash's redispatch thread.
        A request that needs another attempt is requeued only after the
        send lock is released: that attempt may pick the same incarnation.
        """
        worker_id = request.exclude_worker
        try:
            if request.expired():
                # Don't spend encode + ring space on work that is already
                # dead; the future resolves with the deadline error now.
                error = deadline_error(request.request_id, "queue")
                self._record(request, request.failed(error))
                return
            if request.trace is not None:
                # Overwritten on redispatch: the trace describes the attempt
                # that actually produced the result.
                request.trace.stamp("dispatch.start")
            key = affinity_key(request.expression, request.operands)
            with self._state:
                loads = list(self._loads)
            worker_id = self.router.route(key, loads, exclude=request.exclude_worker)
            handle = self._handles[worker_id]
            with handle.send_lock:
                again = self._send(handle, request)
        except Exception:  # noqa: BLE001 — a failed dispatch is another attempt
            again = True
        if again:
            self._requeue(request, exclude_worker=worker_id)

    def _send(self, handle: _WorkerHandle, request: Request) -> bool:
        """Encode, register and send ``request`` under ``handle.send_lock``;
        True when the request needs another attempt."""

        def aborted() -> bool:
            return self._stopping.is_set() or handle.retired or not handle.alive()

        if self._stopping.is_set() or handle.retired:
            return True  # teardown may be closing this incarnation's rings
        try:
            envelope = handle.encoder.encode_request(
                request.request_id,
                request.expression,
                request.operands,
                request.dispatches,
                should_abort=aborted,
            )
        except (RingAborted, TimeoutError):
            return True
        if request.trace is not None:
            request.trace.stamp("encode.done")
            envelope.trace_id = request.trace.trace_id
        if request.deadline is not None:
            envelope.deadline = request.deadline.expires_at
        with self._state:
            if self._control_error is not None or handle.retired:
                # Containment, or a restart, harvested the outstanding maps
                # while we were encoding: registering now would strand the
                # request on an incarnation nobody collects from.
                return True
            handle.outstanding[request.request_id] = request
            self._loads[handle.worker_id] += 1
        try:
            handle.conn.send(envelope)
        except (OSError, ValueError):
            # The worker was torn down mid-send.  Another attempt ONLY if the
            # registration is still ours: a restart's harvest requeues it too.
            with self._state:
                owned = handle.outstanding.pop(request.request_id, None)
                if owned is not None:
                    self._loads[handle.worker_id] -= 1
            return owned is not None
        return False

    # -- collector ----------------------------------------------------------
    def _collect_loop(self, handle: _WorkerHandle) -> None:
        """Read one worker incarnation's responses until its pipe's EOF.
        The worker holds the only copy of its end of the pipe: its exit or
        death is EOF, and so is a frame torn by a kill mid-write."""
        try:
            while True:
                try:
                    response = handle.conn.recv()
                except (EOFError, OSError):
                    return
                self._accept_response(response)
        except Exception as error:  # noqa: BLE001 — contain control-plane death
            self._control_thread_failed(f"collector-{handle.worker_id}.{handle.incarnation}", error)

    def _accept_response(self, response: ResponseEnvelope) -> None:
        with self._state:
            handle = self._handles[response.worker_id]
            if handle.incarnation != response.incarnation:
                return
            handle.counters = response.counters
            request = handle.outstanding.pop(response.request_id, None)
            if request is None:
                return
            self._loads[response.worker_id] -= 1
        error = response.error
        output = None
        if error is None:
            # Release even when decoding raises: the space is consumed either
            # way, and holding it would let repeated decode failures fill the
            # ring and wedge the worker's encode_result (release is monotonic,
            # so that is always safe).  The rings close only after this
            # incarnation's collector, the caller, has returned.
            try:
                output = decode_result(handle.resp_ring, response.result)
            except Exception as decode_error:  # noqa: BLE001 — surface as request error
                error = decode_error
            finally:
                handle.resp_ring.release(response.release_to)
        result = InsumResult(request.request_id, request.expression, output, error)
        self._record(request, result, response.trace, response.worker_id)

    def _finish_trace(self, request: Request, trace_export: dict | None) -> Any:
        """Merge the worker's trace export and build the parent-side spans.

        The parent's spans tile the stretches the worker cannot see —
        admission, dispatch, operand encode, and both ring crossings —
        between its own stamps and the worker's, so the full span set
        covers the request's wall latency without overlap.
        """
        trace = request.trace
        if trace is None:
            return None
        trace.stamp("done")
        if trace_export is not None:
            trace.merge(trace_export)
        trace.span_between("admission.wait", "admission.enter", "admitted")
        trace.span_between("queue.dispatch", "admitted", "dispatch.start")
        trace.span_between("codec.encode", "dispatch.start", "encode.done")
        trace.span_between("ring.transit", "encode.done", "worker.receive")
        trace.span_between("ring.respond", "worker.done", "done")
        return trace

    def _record(
        self, request: Request, result: InsumResult, trace_export=None, worker_id=None
    ) -> None:
        """Settle a terminal result (its latency and trace, the admission
        slot), :meth:`TierCore._account` it before the drain count and the
        completions of ``worker_id`` (the slot whose response this is, if
        any) move, so ``close()`` returns with it counted, then ``on_done``.

        Idempotent per request: control-plane containment can race a
        collector already recording the same request, and the loser must
        not release admission or bump counters a second time — the
        request's own state admits exactly one finisher.
        """
        if not request.finish():
            return
        result.latency_ms = (time.perf_counter() - request.submitted_at) * 1e3
        result.trace = self._finish_trace(request, trace_export)
        expired_result(result, request.deadline)
        cancelled = isinstance(result.error, FutureCancelledError)
        self.admission.release(service_seconds=None if cancelled else result.latency_ms / 1e3)
        self._account(request, result)
        with self._state:
            self._unfinished -= 1
            if result.ok and worker_id is not None:
                self._worker_completed[worker_id] += 1
            self._state.notify_all()
        request.on_done(result)

    # -- control-plane containment ------------------------------------------
    def _control_thread_failed(self, name: str, error: BaseException) -> None:
        """Contain the death of a control thread (a collector or the monitor).

        The parent can no longer guarantee progress, so rather than leave
        ``Future.result()`` callers hanging on requests nobody is driving,
        every in-flight request fails with a
        :class:`~repro.errors.ControlThreadError`, new submissions are
        refused with the same error, and :meth:`health` reports degraded.
        First failure wins; cascading failures in other threads are
        absorbed silently.
        """
        wrapped = ControlThreadError(f"cluster control thread {name} died: {error!r}")
        wrapped.__cause__ = error
        with self._state:
            if self._control_error is not None:
                return
            self._control_error = wrapped
        try:
            # "thread" is a reserved LogRecord attribute; and containment
            # must survive a broken logging setup regardless.
            self._log.error(
                "control thread died; failing all in-flight requests",
                extra={"control_thread": name, "error": repr(error)},
            )
        except Exception:  # noqa: BLE001 — logging must not block containment
            pass
        self._fail_all_inflight(wrapped)

    def _fail_all_inflight(self, error: ControlThreadError) -> None:
        """Resolve every dispatched request with ``error``."""
        stranded: list[Request] = []
        with self._state:
            for handle in self._handles:
                stranded.extend(handle.outstanding.values())
                handle.outstanding.clear()
            self._loads = [0] * self.num_workers
        for request in stranded:
            self._record(request, request.failed(error))

    # -- health monitor -----------------------------------------------------
    def _monitor_loop(self) -> None:
        """Run :meth:`_monitor_iteration` every ``health_interval``; after
        containing an escaped exception it goes on replacing workers."""
        while not self._stopping.wait(self.health_interval):
            try:
                self._monitor_iteration()
            except Exception as error:  # noqa: BLE001 — contain control-plane death
                self._control_thread_failed("monitor", error)

    def _monitor_iteration(self) -> None:
        """One monitor round: replace dead or wedged workers, sample the rest.

        Split out of :meth:`_monitor_loop` so the loop body is a single
        instance-level seam: the containment path (and the replay
        harness's ``control_thread_exception`` fault) wraps exactly one
        iteration, and an exception escaping it is control-plane death,
        not a worker failure.
        """
        for worker_id in range(self.num_workers):
            handle = self._handles[worker_id]
            if self._stopping.is_set():
                return
            if self.supervisor.is_dead(worker_id):
                continue
            if not handle.alive():
                self._handle_worker_failure(worker_id)
                continue
            if self.heartbeat_timeout is not None:
                last_beat = max(handle.resp_ring.heartbeat, handle.started_at)
                if time.time() - last_beat > self.heartbeat_timeout:
                    self._handle_worker_failure(worker_id)
                    continue
            self._sample_worker(handle)

    def _sample_worker(self, handle: _WorkerHandle) -> None:
        """Record one ``/proc`` RSS/CPU sample for a live worker."""
        sample = obs_resources.sample_process(handle.process.pid)
        if sample is None:
            return
        handle.prev_sample = handle.last_sample
        handle.last_sample = sample
        registry = get_registry()
        label = str(handle.worker_id)
        registry.gauge(
            "repro_worker_rss_bytes", "Resident set size of each worker process.", worker=label
        ).set(sample.rss_bytes)
        registry.gauge(
            "repro_worker_cpu_seconds",
            "Cumulative CPU seconds (user + system) of each worker process.",
            worker=label,
        ).set(sample.cpu_seconds)

    @property
    def healthy_worker_count(self) -> int:
        """Worker slots currently able to serve (alive and not retired).

        Zero when the control plane has failed: live workers are useless
        once nobody collects from them.
        """
        if self._control_error is not None:
            return 0
        return sum(
            1 for handle in self._handles if not handle.retired and handle.alive()
        )

    def health(self) -> dict[str, Any]:
        """Liveness report for ``/v1/healthz``: per-worker state and resources.

        ``status`` is ``"ok"`` when every worker process is alive and the
        control plane is intact (``"degraded"``/``"closed"`` otherwise);
        each worker entry carries its pid, incarnation, heartbeat age, and
        the monitor thread's latest RSS/CPU sample (None before the first
        sample lands).  ``dead_workers`` lists slots retired permanently
        by the restart budget; ``control_error`` carries the containment
        error when a control thread has died.
        """
        now = time.time()
        workers = []
        all_alive = True
        for handle in self._handles:
            alive = handle.alive()
            all_alive = all_alive and alive
            try:
                beat = max(handle.resp_ring.heartbeat, handle.started_at)
                heartbeat_age = max(0.0, now - beat)
            except Exception:  # noqa: BLE001 — ring may be mid-teardown
                heartbeat_age = None
            entry = {
                "worker": handle.worker_id,
                "pid": handle.process.pid,
                "alive": alive,
                "incarnation": handle.incarnation,
                "heartbeat_age_s": heartbeat_age,
                "resources": handle.last_sample.as_dict() if handle.last_sample else None,
            }
            sample, prev = handle.last_sample, handle.prev_sample
            if sample is not None and prev is not None:
                entry["cpu_percent"] = obs_resources.cpu_percent_between(prev, sample)
            workers.append(entry)
        restarts = self.window.counters()["restarts"]
        control_error = self._control_error
        dead_workers = list(self.supervisor.dead_workers)
        status = "ok" if all_alive and control_error is None and not dead_workers else "degraded"
        if self._closed:
            status = "closed"
        return {
            "status": status,
            "backend": self.name,
            "restarts": restarts,
            "inflight": self.admission.inflight,
            "healthy_workers": self.healthy_worker_count,
            "dead_workers": dead_workers,
            "control_error": repr(control_error) if control_error is not None else None,
            "quarantined": len(self.quarantine),
            "workers": workers,
        }

    # -- reporting ----------------------------------------------------------
    def _cumulative_counters(self) -> list[tuple[int, ...]]:
        """Per slot, the interior counters since the server started: what
        the incarnations already replaced had reported plus the current
        one's last report.  The caller holds the state condition."""
        return [
            tuple(map(sum, zip(replaced, handle.counters)))
            for replaced, handle in zip(self._replaced_counters, self._handles)
        ]

    def stats(self) -> ServeStats:
        """The window's report; ``per_worker`` has one entry per slot.

        Built from the parent's own window and the counters the workers'
        responses carried: no message is sent and nothing is waited on, so
        a scrape costs the same with a worker down, and what a dead
        incarnation served stays counted.
        """
        with self._state:
            slots = [
                dict(zip(INTERIOR, map(operator.sub, totals, marks)), completed=completed)
                for totals, marks, completed in zip(
                    self._cumulative_counters(), self._counter_marks, self._worker_completed
                )
            ]
        return self.window.snapshot(
            per_worker=tuple(ServeStats("threaded", 1, **slot) for slot in slots),
            rejected=self.admission.rejected - self._rejected_mark,
        )

    def reset_stats(self) -> None:
        """Start a fresh measurement window: the window itself, and a mark
        under every cumulative counter a window is a subtraction from."""
        with self._state:
            self._counter_marks = self._cumulative_counters()
            self._worker_completed = [0] * self.num_workers
            self._rejected_mark = self.admission.rejected
        self.window.reset()

    @property
    def worker_pids(self) -> list[int]:
        """PID of each live worker process (index = worker id)."""
        return [handle.process.pid for handle in self._handles]

    @property
    def segment_names(self) -> list[str]:
        """Names of every live shared-memory segment the cluster owns."""
        names = []
        for handle in self._handles:
            names.extend([handle.req_ring.name, handle.resp_ring.name])
        return names

    # -- lifecycle ----------------------------------------------------------
    def close(self, timeout: float | None = 30.0) -> None:
        """Drain in-flight work, stop the workers, and free every segment.

        Safe to call twice.  ``timeout`` bounds the drain; work still in
        flight afterwards is abandoned (its workers are terminated).
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._state:
            if self._closed:
                return
            self._closed = True
            while self._unfinished:
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    break
                self._state.wait(remaining if remaining is not None else 0.5)
        self._stopping.set()
        with self._restart_lock:
            # Barrier against the monitor's crash-restart path: any
            # restart already holding the lock finishes installing its
            # replacement handle before the teardown below snapshots the
            # pool, and any restart arriving later observes the stop flag
            # under the lock and does nothing — so no worker (or shm
            # segment) is ever spawned after its teardown pass.
            pass
        # Workers forked later hold copies of the parent ends, so a worker is
        # told to stop and sees no EOF.  A worker whose pipe is full is not
        # reading, and a send lock still held is a send blocked on such a
        # worker: teardown ends it.
        for handle in self._handles:
            if not handle.send_lock.acquire(timeout=1.0):
                continue
            try:
                if select.select([], [handle.conn], [], 0)[1]:
                    handle.conn.send(("stop",))
            except (OSError, ValueError):
                pass
            finally:
                handle.send_lock.release()
        for handle in self._handles:
            handle.process.join(timeout=5.0)
        self._monitor.join(timeout=5.0)
        for handle in self._handles:
            self._teardown_handle(handle)
        self._log.info("ClusterServer closed", extra={"workers": self.num_workers})
