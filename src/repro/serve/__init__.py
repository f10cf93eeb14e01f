"""The serving front door: one Session/Future API over every backend.

This package is the serving counterpart of the paper's one-surface
thesis: just as the indirect Einsum subsumes a zoo of hand-written
sparse kernels, :class:`Session` subsumes the zoo of tier entry points
grown by the runtime (a thread-pool ``InsumServer``), the cluster (a
``ClusterServer`` with admission control), and inline one-shot calls:

* :mod:`repro.serve.session` — :class:`Session`: ``submit`` returning a
  real :class:`Future`, ``submit_many`` / ``map_batches`` on top, an
  asyncio bridge (``asubmit`` / ``amap_batches``), and context-manager
  lifecycle that drains and closes the tier.
* :mod:`repro.serve.config` — :class:`ServeConfig`: the typed dataclass
  consolidating every tier's kwargs, with per-backend validation.
* :mod:`repro.serve.future` — :class:`Future`: result/exception
  delivery, timeout, cancellation of undispatched work, callbacks.
* :mod:`repro.serve.backend` — the :class:`ExecutorBackend` protocol the
  tiers implement; it re-exports the inline (calling-thread) backend.

:class:`ServeStats`, the report every tier's ``stats()`` returns, is
re-exported here from :mod:`repro.runtime.stats`, its one home.

See ``docs/SERVING.md`` for the architecture and ``docs/API.md`` for the
public surface and the backend protocol.
"""

from repro.serve.backend import ExecutorBackend, InlineBackend, build_backend
from repro.serve.config import BACKENDS, ServeConfig, ServeConfigError
from repro.serve.future import Future
from repro.runtime.stats import ServeStats
from repro.serve.session import Session

__all__ = [
    "BACKENDS",
    "ExecutorBackend",
    "Future",
    "InlineBackend",
    "ServeConfig",
    "ServeConfigError",
    "ServeStats",
    "Session",
    "build_backend",
]
