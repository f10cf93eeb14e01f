"""The multi-process serving tier: one GIL per worker, shared-memory IPC.

This package scales :class:`~repro.runtime.server.InsumServer` past a
single interpreter (the ROADMAP's "production-scale" direction):

* :mod:`repro.cluster.server` — :class:`ClusterServer`, the drop-in
  multi-process tier (``submit(request)`` / ``try_cancel(request)``).
* :mod:`repro.cluster.shm` — :class:`ShmRing`, the single-producer
  single-consumer shared-memory byte ring moving dense payloads.
* :mod:`repro.cluster.codec` — the one operand codec: descriptors, the
  sender/receiver cache mirror every transport shares, the ring framing.
* :mod:`repro.cluster.router` — sticky expression+pattern affinity
  routing, so each key's traffic reaches the worker whose caches it warmed.
* :mod:`repro.cluster.admission` — bounded in-flight admission control
  with blocking backpressure or reject-with-``retry_after``.
* :mod:`repro.cluster.worker` — the worker process: one thread serving
  each envelope as it reads it through the shared request routine
  (specialization intact, one call per request) behind the rings.

See ``docs/SERVING.md`` for the architecture and failure model.
"""

from repro.cluster.admission import AdmissionController, ClusterBusyError
from repro.cluster.router import Router, affinity_key
from repro.cluster.server import ClusterServer, WorkerCrashedError
from repro.cluster.shm import ShmRing, segment_exists

__all__ = [
    "AdmissionController",
    "ClusterBusyError",
    "ClusterServer",
    "Router",
    "ShmRing",
    "WorkerCrashedError",
    "affinity_key",
    "segment_exists",
]
