"""repro.obs: one observability layer for the whole serving stack.

Four pieces, designed to be imported from anywhere in the package
without cycles (this package depends on nothing above the stdlib):

* :mod:`repro.obs.metrics` — the process-wide registry of counters /
  gauges / histograms, with ``snapshot()`` and Prometheus-text
  rendering.  Every tier and subsystem increments the same registry.
* :mod:`repro.obs.logs` — structured JSON logging with per-subsystem
  loggers (``REPRO_LOG_LEVEL`` / ``REPRO_LOG_FORMAT``).
* :mod:`repro.obs.trace` — per-request trace ids and span records,
  minted at ``Session.submit``, carried on the request and in cluster
  envelopes, retrievable as ``Future.trace()``.
* :mod:`repro.obs.ops` — the ``/metrics`` / ``/healthz`` / ``/statsz``
  HTTP endpoint (``Session.serve_ops`` or ``REPRO_OPS_PORT``), plus
  :mod:`repro.obs.resources` for ``/proc``-based RSS/CPU accounting.

See ``docs/OBSERVABILITY.md`` for the metric catalogue, the trace span
glossary, the ops API, and the log schema.
"""

from repro.obs.logs import configure_logging, get_logger
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    validate_prometheus_text,
)
from repro.obs.ops import OpsServer
from repro.obs.resources import ProcessSample, sample_process
from repro.obs.trace import Span, Trace

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "OpsServer",
    "ProcessSample",
    "Span",
    "Trace",
    "configure_logging",
    "get_logger",
    "get_registry",
    "sample_process",
    "validate_prometheus_text",
]
