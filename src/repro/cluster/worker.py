"""The worker process: the inline backend's request routine behind a ring pair.

Each worker is a full serving stack in its own interpreter — engine
specialization and plan cache intact — fed by
envelopes on its end of a duplex pipe and operand bytes on a request ring,
and answering on the same pipe and a response ring.  Everything happens on
the main thread: it is the only reader and the only writer of the pipe, and
it executes every request itself, so the process runs exactly one thread.

The loop serves each envelope as it reads it: decode, accept, then
:meth:`~repro.runtime.server.InlineBackend.serve`, the request routine the
threaded tier's workers run — one call, or, for a request that expired
behind earlier ones, its deadline error unexecuted — and answer from the
request's ``on_done``.  The next envelope is read only after that answer.

The serve loop itself stamps the response ring's heartbeat header — once
per pipe poll and once per completed request — so the stamp measures
*progress*, not mere process existence (a dedicated beater thread would
keep beating while the loop sat wedged, making the parent's staleness
check worthless).  The parent's health monitor combines the stamp with
``Process.is_alive()`` to distinguish "busy" from "gone"; its
``heartbeat_timeout`` must therefore exceed the longest legitimate
single *request*.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any

from repro.cluster.codec import OperandDecoder, encode_result, portable_error
from repro.cluster.messages import RequestEnvelope, ResponseEnvelope
from repro.cluster.shm import ShmRing
from repro.obs import trace as obs_trace
from repro.resilience.deadline import Deadline
from repro.runtime.request import Request
from repro.runtime.stats import INTERIOR


def _reinit_after_fork() -> None:
    """Re-arm global locks that may have been held at fork time.

    A ``fork()`` copies every module-level lock in whatever state some
    *other* parent thread held it, and that thread does not exist in the
    child — a lock caught locked stays locked forever.  The worker
    therefore replaces the locks of every memo and of the metrics registry
    with fresh ones (and clears the identity-keyed caches, whose
    bookkeeping could have been mid-mutation) before touching them.
    """
    import repro.engine.fingerprint as fingerprint
    import repro.obs.metrics as obs_metrics
    import repro.runtime.plan_cache as plan_cache

    fingerprint._LOCK = threading.RLock()
    for table in (fingerprint._TOKENS, fingerprint._ARTIFACTS, fingerprint._TAGS):
        table.clear()
    obs_metrics._reinit_after_fork()
    plan_cache._reinit_after_fork()


def _serve_envelope(
    envelope: RequestEnvelope,
    decoder: OperandDecoder,
    server: Any,
    resp_ring: ShmRing,
    conn,
    worker_id: int,
    incarnation: int,
    should_abort,
) -> None:
    """Decode ``envelope`` and serve it through the request routine; the
    request's ``on_done`` answers it on the pipe and beats."""

    def reply(**fields: Any) -> ResponseEnvelope:
        # The counters, not a stats snapshot: that sorts every latency sample.
        counters = server.window.counters()
        return ResponseEnvelope(
            request_id=envelope.request_id,
            worker_id=worker_id,
            incarnation=incarnation,
            counters=tuple(counters[name] for name in INTERIOR),
            **fields,
        )

    def answer(result: Any) -> None:
        response = reply()
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
        conn.send(response)
        resp_ring.beat()

    received = time.time()
    try:
        wtrace = None
        if envelope.trace_id is not None:
            # Re-create the parent's trace worker-side: stamp the ring
            # arrival, span the decode, and carry it on the request.
            wtrace = obs_trace.maybe_start(envelope.trace_id)
        if wtrace is not None:
            wtrace.stamp("worker.receive", received)
        # Decode even when the deadline has passed: decoding applies the
        # cache side-effects the parent mirrors from the descriptor stream
        # and releases the envelope's ring space.  The request routine
        # sheds expired work unexecuted.
        operands = decoder.decode_request(envelope)
        if wtrace is not None:
            wtrace.stamp("decode.done")
            wtrace.span_between("codec.decode", "worker.receive", "decode.done")
    except Exception as error:  # noqa: BLE001 — a bad request must not kill the worker
        conn.send(reply(error=portable_error(error)))
        return
    request = Request(
        envelope.expression,
        operands,
        on_done=answer,
        trace=wtrace,
        deadline=Deadline.from_epoch(envelope.deadline),
    )
    server.accept(request, envelope.request_id)
    server.serve(request)


def worker_main(
    worker_id: int,
    incarnation: int,
    req_ring_name: str,
    resp_ring_name: str,
    conn,
    server_kwargs: dict,
    forked: bool,
) -> None:
    """Entry point of one worker process (module-level for spawn support)."""
    if forked:
        _reinit_after_fork()
    # Import here, after the fork guard: building the server touches the
    # caches whose locks _reinit_after_fork just re-armed.
    from repro.runtime.server import InlineBackend

    parent_pid = os.getppid()

    def parent_gone() -> bool:
        return os.getppid() != parent_pid

    req_ring = ShmRing.attach(req_ring_name)
    resp_ring = ShmRing.attach(resp_ring_name)
    resp_ring.beat()

    decoder = OperandDecoder(req_ring)
    server = InlineBackend(**server_kwargs)
    try:
        while not parent_gone():
            resp_ring.beat()
            if not conn.poll(1.0):
                continue
            message = conn.recv()
            if isinstance(message, tuple):  # ("stop",), the one control message
                break
            _serve_envelope(
                message, decoder, server, resp_ring, conn, worker_id, incarnation, parent_gone
            )
    except (EOFError, OSError):
        pass  # the pipe broke: the parent is gone
    finally:
        req_ring.close()
        resp_ring.close()
