"""A cluster worker's envelopes, served one at a time on its main thread."""

from __future__ import annotations

import os
import time

import numpy as np

from repro.cluster.messages import RequestEnvelope
from repro.cluster.server import ClusterServer
from repro.cluster.shm import ShmRing
from repro.cluster.worker import _serve_envelope
from repro.errors import DeadlineExceededError
from repro.obs import trace as obs_trace
from repro.runtime.server import InlineBackend, RequestExecutor

EXPRESSION = "C[i] += A[i]"


class _Decoder:
    """Hands back each envelope's operands (the ring decode is not under test)."""

    def __init__(self, operands):
        self.operands = operands

    def decode_request(self, envelope):
        return self.operands[envelope.request_id]


class _Conn:
    def __init__(self):
        self.sent = []

    def send(self, message):
        self.sent.append(message)


def test_a_request_that_expires_behind_the_last_is_shed_unexecuted(monkeypatch):
    """The first request's execution outlasts the second's deadline: the
    second is answered with its deadline error and never reaches the
    executor, because the worker's request carries the envelope's deadline
    into the request routine, which sheds it at its turn."""
    executed = []
    execute = RequestExecutor.execute

    def slow_execute(self, expression, operands):
        executed.append(operands["A"][0])
        time.sleep(0.3)
        return execute(self, expression, operands)

    monkeypatch.setattr(RequestExecutor, "execute", slow_execute)
    decoder = _Decoder(
        {7: dict(A=np.ones(3), C=np.zeros(3)), 8: dict(A=np.full(3, 2.0), C=np.zeros(3))}
    )
    envelopes = [
        RequestEnvelope(request_id=7, expression=EXPRESSION),
        RequestEnvelope(request_id=8, expression=EXPRESSION, deadline=time.time() + 0.15),
    ]
    conn, server = _Conn(), InlineBackend()
    ring = ShmRing.create(f"repro-test-worker-{os.getpid()}", 1 << 16)
    try:
        for envelope in envelopes:
            _serve_envelope(envelope, decoder, server, ring, conn, 0, 0, lambda: False)
    finally:
        ring.close()
    assert executed == [1.0]
    first, second = conn.sent
    assert (first.request_id, first.error) == (7, None) and first.result is not None
    assert second.request_id == 8 and isinstance(second.error, DeadlineExceededError)
    assert "request 8 " in str(second.error)


def test_a_worker_reads_the_next_request_only_after_answering_the_last(monkeypatch):
    """Three requests sent back to back to one worker: each is received
    (read off the pipe and decoded) only once the one before it was
    answered, so no request waits decoded behind another's execution."""
    execute = RequestExecutor.execute

    def slow_execute(self, expression, operands):
        time.sleep(0.2)
        return execute(self, expression, operands)

    monkeypatch.setattr(RequestExecutor, "execute", slow_execute)  # before the fork
    old = obs_trace.set_enabled(True)
    try:
        with ClusterServer(num_workers=1) as server:
            pairs = [(EXPRESSION, dict(A=np.full(3, float(i)), C=np.zeros(3))) for i in range(3)]
            results = server.run_batch(pairs, timeout=60)
    finally:
        obs_trace.set_enabled(old)
    assert all(result.ok for result in results)
    for last, this in zip(results, results[1:]):
        assert this.trace.stamp_of("worker.receive") >= last.trace.stamp_of("worker.done")
