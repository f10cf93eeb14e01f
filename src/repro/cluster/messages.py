"""Envelope types crossing the cluster's per-worker pipes.

Bulk payloads (dense operands, the arrays of sparse operands, result
arrays) travel through the shared-memory rings
(:mod:`repro.cluster.shm`); the pipes carry only these small picklable
envelopes plus control tuples.  Each envelope references ring payloads
by the descriptors of :mod:`repro.cluster.codec`.

The one control message is a plain tuple: ``("stop",)`` — parent ->
worker: finish in-flight work and exit.  (There is no stats message: a
worker's counters ride on its responses.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass
class RequestEnvelope:
    """One request dispatched to a worker.

    ``operands`` maps operand names to codec descriptors (see
    :mod:`repro.cluster.codec`); ``release_to`` is the request ring
    cursor the worker stores after decoding every ring-borne operand.
    ``attempt`` counts dispatches of this request id (requeues after a
    worker crash increment it).  ``trace_id`` carries the parent's
    request trace id (None when tracing is disabled); the worker
    re-creates a trace under it and ships its stamps/spans back in the
    response.  ``deadline`` is the request's absolute expiry in epoch
    seconds (None = no deadline): the worker's request carries it, so the
    batch routine answers an envelope that has expired by its turn with a
    ``DeadlineExceededError`` instead of executing it (the envelope is
    still decoded, which releases its ring space).
    """

    request_id: int
    expression: str
    operands: dict[str, list] = field(default_factory=dict)
    release_to: int = 0
    attempt: int = 0
    trace_id: str | None = None
    deadline: float | None = None


@dataclass
class ResponseEnvelope:
    """One completed request reported back by a worker.

    Exactly one of ``result`` (a codec descriptor into the response
    ring, or an inline descriptor) and ``error`` is set.  ``worker_id``
    and ``incarnation`` let the parent ignore stale responses from a
    worker generation it has already replaced.  ``trace`` is the
    worker-side :meth:`repro.obs.trace.Trace.export` snapshot (stamps
    and spans) when the request carried a trace id.  ``counters`` holds
    the worker's cumulative :data:`~repro.runtime.stats.INTERIOR` counters
    (plan-cache hits and misses, coalesced requests and batches, since the
    incarnation started) as of this response; the parent keeps the last
    it saw, so they outlive the worker.
    """

    request_id: int
    worker_id: int
    incarnation: int
    result: list | None = None
    error: Any = None
    release_to: int = 0
    trace: dict | None = None
    counters: tuple[int, ...] = (0, 0, 0, 0)
