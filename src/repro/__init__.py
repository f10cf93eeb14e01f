"""repro: a reproduction of "Insum: Sparse GPU Kernels Simplified and
Optimized with Indirect Einsums" (ASPLOS 2026).

Public API highlights
---------------------
* :func:`repro.insum` / :class:`repro.Insum` — execute an indirect Einsum
  written over the arrays of a fixed-length sparse format.
* :func:`repro.sparse_einsum` — the one-line format-agnostic API: pass a
  :class:`repro.formats.SparseFormat` operand and a classic Einsum string.
* :mod:`repro.formats` — COO, CSR, ELL, BCSR, BlockCOO, GroupCOO,
  BlockGroupCOO and the group-size heuristic of Section 4.2.
* :mod:`repro.kernels` — the paper's four case-study applications
  (structured/unstructured SpMM, point-cloud sparse convolution, the
  equivariant tensor product) built on the public API.
* :mod:`repro.baselines` — the hand-written libraries and sparse compilers
  the paper compares against, re-implemented at the algorithm level.
* :mod:`repro.core` — the compiler itself: the indirect-Einsum frontend,
  the Insum planner (whose plan is the IR), the extended Inductor-like
  backend, and the simulated Triton/GPU layer.
* :mod:`repro.tuner` — format selection by the paper's Section 4.2 rule:
  :func:`repro.auto_format` and the ``insum(..., format="auto")`` path,
  decided from the operand's sparsity profile with nothing timed.
* :mod:`repro.cluster` — multi-process serving: :class:`repro.ClusterServer`
  dispatches the ``InsumServer`` surface across worker processes over
  shared-memory ring transport (see ``docs/SERVING.md``).
* :mod:`repro.serve` — the serving front door: :class:`repro.Session`
  with one ``submit()``-returns-:class:`repro.Future` surface over
  inline, threaded, and cluster execution, configured by a typed
  :class:`repro.ServeConfig` and reporting one
  :class:`repro.ServeStats` on every tier (see ``docs/API.md``).
* :mod:`repro.obs` — observability across every tier: the process-wide
  metrics registry, per-request traces (``Future.trace()``), structured
  JSON logs; the gateway serves the registry at ``/metrics`` and the
  session at ``/v1/statsz`` and ``/v1/healthz`` (see
  ``docs/OBSERVABILITY.md``).
* :mod:`repro.replay` — workload-trace replay: versioned JSONL traces
  (``repro-trace/1``), an open-loop replayer over any backend emitting
  an SLO report with latency/attainment/goodput, and a seeded fault
  injector behind the ``tests/replay`` soak suite (see
  ``docs/REPLAY.md``).
* :mod:`repro.resilience` — the failure-handling layer over every
  serving tier: per-request deadlines (``submit(deadline_ms=...)`` →
  :class:`repro.DeadlineExceededError`), a session
  :class:`repro.resilience.RetryPolicy` with decorrelated-jitter
  backoff, crash-loop supervision with restart budgets and poison
  quarantine, and warm failover to a fallback backend (see
  ``docs/RESILIENCE.md``).
* :mod:`repro.gateway` — the HTTP front door: a versioned ``/v1`` wire
  API over :class:`repro.Session` (``Session.serve_gateway()``), with
  JSON and binary operand encodings, per-tenant API-key auth and
  admission quotas, header-carried deadlines shed at the edge, and a
  Session-shaped :class:`repro.GatewayClient` (see ``docs/GATEWAY.md``).

See ``docs/ARCHITECTURE.md`` for the full pipeline walk-through,
``docs/FORMATS.md`` for the format zoo, and ``docs/BENCHMARKS.md`` for the
paper-figure harnesses.
"""

from repro.cluster import ClusterBusyError, ClusterServer, WorkerCrashedError
from repro.core.insum import Insum, SparseEinsum, insum, sparse_einsum
from repro.core.inductor import InductorConfig
from repro.core.triton_sim import DeviceModel, RTX3090
from repro.errors import (
    ControlThreadError,
    DeadlineExceededError,
    FutureCancelledError,
    GatewayAuthError,
    GatewayError,
    PoisonedRequestError,
    ServeError,
    SessionClosedError,
    TenantQuotaError,
    WireFormatError,
)
from repro.gateway import GatewayClient, GatewayConfig, GatewayServer
from repro.resilience import RetryPolicy
from repro.runtime import (
    InsumServer,
    PlanCache,
    StackedSparse,
    clear_plan_cache,
    configure_plan_cache,
    get_plan_cache,
)
from repro.obs import configure_logging, get_logger, get_registry
from repro.serve import Future, ServeConfig, ServeStats, Session
from repro.tuner import (
    SparsityProfile,
    auto_format,
    profile_operand,
)

__version__ = "1.7.0"

__all__ = [
    "ClusterBusyError",
    "ClusterServer",
    "ControlThreadError",
    "DeadlineExceededError",
    "Future",
    "FutureCancelledError",
    "GatewayAuthError",
    "GatewayClient",
    "GatewayConfig",
    "GatewayError",
    "GatewayServer",
    "PoisonedRequestError",
    "RetryPolicy",
    "TenantQuotaError",
    "WireFormatError",
    "ServeConfig",
    "ServeError",
    "ServeStats",
    "Session",
    "SessionClosedError",
    "WorkerCrashedError",
    "Insum",
    "SparseEinsum",
    "insum",
    "sparse_einsum",
    "InductorConfig",
    "DeviceModel",
    "RTX3090",
    "InsumServer",
    "PlanCache",
    "StackedSparse",
    "clear_plan_cache",
    "configure_plan_cache",
    "get_plan_cache",
    "SparsityProfile",
    "auto_format",
    "profile_operand",
    "configure_logging",
    "get_logger",
    "get_registry",
    "__version__",
]
