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
* :mod:`repro.obs.resources` — ``/proc``-based RSS/CPU accounting.

The HTTP side is the gateway's: ``GET /metrics`` renders this registry
and ``GET /v1/statsz`` / ``GET /v1/healthz`` read the session (see
``docs/OBSERVABILITY.md`` for the metric catalogue, the trace span
glossary, the ops routes, and the log schema).
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
from repro.obs.resources import ProcessSample, sample_process
from repro.obs.trace import Span, Trace

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ProcessSample",
    "Span",
    "Trace",
    "configure_logging",
    "get_logger",
    "get_registry",
    "sample_process",
    "validate_prometheus_text",
]
