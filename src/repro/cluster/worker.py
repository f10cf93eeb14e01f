"""The worker process: one :class:`InsumServer` behind a ring pair.

Each worker is a full serving stack in its own interpreter — engine
specialization, plan cache, and same-plan coalescing intact — fed by a
request queue of envelopes and a request ring of operand bytes, and
reporting through its own response queue and response ring.  (Queues are
strictly per-worker-incarnation: a shared queue's write lock is a plain
semaphore that a SIGKILLed writer would leave held forever, stalling
every surviving writer — the parent's crash tests exercise exactly that.)

The loop deliberately *batches*: after blocking on the first envelope it
drains whatever else has queued (up to :data:`BATCH_WINDOW`) and submits the
whole batch to the inner server before answering any of it, so the inner
server's coalescer sees the same opportunity window it would see
in-process.  Completions then come back one at a time, in the order the
inner server finishes them, which lets the worker heartbeat as each
request completes instead of once per batch.

The serve loop itself stamps the response ring's heartbeat header — once
per queue poll and once per completed request — so the stamp measures
*progress*, not mere process existence (a dedicated beater thread would
keep beating while the loop sat wedged, making the parent's staleness
check worthless).  The parent's health monitor combines the stamp with
``Process.is_alive()`` to distinguish "busy" from "gone"; its
``heartbeat_timeout`` must therefore exceed the longest legitimate
single *request*, independent of the batch window.
"""

from __future__ import annotations

import os
import queue
import threading
import time
from typing import Any

from repro.cluster.codec import OperandDecoder, encode_result, portable_error
from repro.cluster.messages import RequestEnvelope, ResponseEnvelope
from repro.cluster.shm import ShmRing
from repro.obs import trace as obs_trace
from repro.resilience.deadline import Deadline, deadline_error
from repro.runtime.request import Request
from repro.runtime.stats import INTERIOR

#: Largest envelope batch a worker drains per inner-server round — the
#: coalescing opportunity window.
BATCH_WINDOW = 32


def _reinit_after_fork() -> None:
    """Re-arm global locks that may have been held at fork time.

    A ``fork()`` copies every module-level lock in whatever state some
    *other* parent thread held it, and that thread does not exist in the
    child — a lock caught locked stays locked forever.  The worker
    therefore replaces the process-wide locks of the engine and runtime
    caches with fresh ones (and clears the identity-keyed caches, whose
    bookkeeping could have been mid-mutation) before touching them.
    """
    import repro.engine.fingerprint as fingerprint
    import repro.engine.paths as paths
    import repro.obs.metrics as obs_metrics
    import repro.runtime.plan_cache as plan_cache
    import repro.tuner.auto as tuner_auto

    fingerprint._LOCK = threading.RLock()
    fingerprint._TOKENS.clear()
    fingerprint._ARTIFACTS.clear()
    paths._LOCK = threading.Lock()
    tuner_auto._DECISIONS._lock = threading.Lock()
    plan_cache._GLOBAL_LOCK = threading.Lock()
    plan_cache._GLOBAL_CACHE._lock = threading.RLock()
    obs_metrics._reinit_after_fork()


def _serve_batch(
    batch: list[RequestEnvelope],
    decoder: OperandDecoder,
    server: Any,
    resp_ring: ShmRing,
    response_q,
    worker_id: int,
    incarnation: int,
    should_abort,
) -> None:
    """Decode, execute (as one inner-server batch), and answer ``batch``."""

    def reply(envelope: RequestEnvelope, **fields: Any) -> ResponseEnvelope:
        # The counters, not a stats snapshot: that sorts every latency sample.
        counters = server.window.counters()
        return ResponseEnvelope(
            request_id=envelope.request_id,
            worker_id=worker_id,
            incarnation=incarnation,
            counters=tuple(counters[name] for name in INTERIOR),
            **fields,
        )

    done: queue.SimpleQueue = queue.SimpleQueue()
    submitted = 0
    for envelope in batch:
        received = time.time()
        try:
            wtrace = None
            if envelope.trace_id is not None:
                # Re-create the parent's trace worker-side: stamp the ring
                # arrival, span the decode, and hand it to the inner
                # server on the request.
                wtrace = obs_trace.maybe_start(envelope.trace_id)
            if wtrace is not None:
                wtrace.stamp("worker.receive", received)
            # Decode even when the deadline has passed: decoding applies
            # the cache side-effects the parent mirrors from the
            # descriptor stream and releases the envelope's ring space.
            # Only *execution* is skipped for expired work.
            operands = decoder.decode_request(envelope)
            deadline = Deadline.from_epoch(envelope.deadline)
            if deadline is not None and deadline.expired():
                expired = deadline_error(envelope.request_id, "worker")
                response_q.put(reply(envelope, error=portable_error(expired)))
                resp_ring.beat()
                continue
            if wtrace is not None:
                wtrace.stamp("decode.done")
                wtrace.span_between("codec.decode", "worker.receive", "decode.done")
            server.submit(
                Request(
                    envelope.expression,
                    operands,
                    on_done=lambda result, envelope=envelope: done.put((envelope, result)),
                    trace=wtrace,
                )
            )
        except Exception as error:  # noqa: BLE001 — a bad request must not kill the worker
            response_q.put(reply(envelope, error=portable_error(error)))
            continue
        submitted += 1
    # Answer per completion, not per batch: every request is already in
    # flight, and the beat after each one keeps the parent's staleness
    # check scaled to a single request rather than BATCH_WINDOW of them.
    for _ in range(submitted):
        envelope, result = done.get()
        response = reply(envelope)
        try:
            if result.ok:
                response.result, response.release_to = encode_result(
                    resp_ring, result.output, should_abort=should_abort
                )
            else:
                response.error = portable_error(result.error)
        except Exception as error:  # noqa: BLE001 — report, never crash the loop
            response.result = None
            response.error = portable_error(error)
        if envelope.trace_id is not None and result.trace is not None:
            result.trace.stamp("worker.done")
            result.trace.span_between("codec.encode_result", "exec.end", "worker.done")
            response.trace = result.trace.export()
        response_q.put(response)
        resp_ring.beat()


def worker_main(
    worker_id: int,
    incarnation: int,
    req_ring_name: str,
    resp_ring_name: str,
    request_q,
    response_q,
    server_kwargs: dict,
    forked: bool,
) -> None:
    """Entry point of one worker process (module-level for spawn support)."""
    if forked:
        _reinit_after_fork()
    # Import here, after the fork guard: building the server touches the
    # caches whose locks _reinit_after_fork just re-armed.
    from repro.runtime.server import InsumServer

    parent_pid = os.getppid()

    def parent_gone() -> bool:
        return os.getppid() != parent_pid

    req_ring = ShmRing.attach(req_ring_name)
    resp_ring = ShmRing.attach(resp_ring_name)
    resp_ring.beat()

    decoder = OperandDecoder(req_ring)
    server = InsumServer(**server_kwargs)
    try:
        running = True
        while running and not parent_gone():
            resp_ring.beat()
            try:
                message = request_q.get(timeout=1.0)
            except queue.Empty:
                continue
            batch: list[RequestEnvelope] = []
            while True:
                if isinstance(message, tuple):  # ("stop",), the one control message
                    running = False
                    break
                else:
                    batch.append(message)
                    if len(batch) >= BATCH_WINDOW:
                        break
                try:
                    message = request_q.get_nowait()
                except queue.Empty:
                    break
            _serve_batch(
                batch,
                decoder,
                server,
                resp_ring,
                response_q,
                worker_id,
                incarnation,
                parent_gone,
            )
    finally:
        server.close()
        req_ring.close()
        resp_ring.close()
