"""A cluster worker's batch, served on its main thread by the batch routine."""

from __future__ import annotations

import os
import time

import numpy as np

from repro.cluster.messages import RequestEnvelope
from repro.cluster.shm import ShmRing
from repro.cluster.worker import _serve_batch
from repro.errors import DeadlineExceededError
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


def test_a_request_that_expires_behind_its_batch_is_shed_unexecuted(monkeypatch):
    """The first request's execution outlasts the second's deadline: the
    second is answered with its deadline error and never reaches the
    executor, because the worker's request carries the envelope's deadline
    into the batch routine, which sheds it just before its turn."""
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
    batch = [
        RequestEnvelope(request_id=7, expression=EXPRESSION),
        RequestEnvelope(request_id=8, expression=EXPRESSION, deadline=time.time() + 0.15),
    ]
    conn = _Conn()
    ring = ShmRing.create(f"repro-test-worker-{os.getpid()}", 1 << 16)
    try:
        _serve_batch(batch, decoder, InlineBackend(), ring, conn, 0, 0, lambda: False)
    finally:
        ring.close()
    assert executed == [1.0]
    first, second = conn.sent
    assert (first.request_id, first.error) == (7, None) and first.result is not None
    assert second.request_id == 8 and isinstance(second.error, DeadlineExceededError)
    assert "request 8 " in str(second.error)
