"""The ops HTTP endpoint: ``/metrics``, ``/healthz``, ``/statsz``.

A tiny stdlib ``http.server`` surface meant for scraping and probing,
not for serving traffic:

* ``GET /metrics`` — the process-wide registry in Prometheus text
  format.  When bound to a :class:`~repro.serve.Session`, the session
  first publishes its :class:`~repro.runtime.stats.ServeStats` window
  as gauges, so cluster-tier counters that live in worker processes
  (plan-cache hits, coalesce counts) appear in the parent's scrape.
* ``GET /healthz`` — liveness JSON: ``200`` with per-worker heartbeat /
  restart / RSS state while the backend is healthy, ``503`` when
  degraded.
* ``GET /statsz`` — the full ``ServeStats`` snapshot as JSON.
* ``GET /v1`` — the gateway wire API's machine-readable index (plus the
  bound address when the session is serving one), so an operator probing
  the ops port discovers the data-plane surface from the same place.

Start one with :meth:`repro.serve.Session.serve_ops` (or set
``REPRO_OPS_PORT`` and the session starts it for you); the server runs
on a daemon thread and stops with the session.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from repro.obs.logs import get_logger
from repro.obs.metrics import MetricsRegistry, get_registry

__all__ = ["OpsServer", "OPS_PORT_ENV"]

#: Environment variable: when set, sessions auto-start an ops server on
#: this port (0 = ephemeral).
OPS_PORT_ENV = "REPRO_OPS_PORT"

#: Content type of the Prometheus text exposition format.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class OpsServer:
    """One ops endpoint over a registry and (optionally) a session.

    Parameters
    ----------
    session:
        The :class:`~repro.serve.Session` whose stats and health back
        ``/statsz`` and ``/healthz``; None serves registry metrics only
        (``/healthz`` then reports bare process liveness).
    registry:
        The metrics registry behind ``/metrics`` (default: the
        process-wide one).
    host / port:
        Bind address; ``port=0`` picks an ephemeral port (read it back
        from :attr:`port` after :meth:`start`).
    """

    def __init__(
        self,
        session: Any = None,
        registry: MetricsRegistry | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.session = session
        self.registry = registry if registry is not None else get_registry()
        self.host = host
        self._requested_port = int(port)
        self._httpd: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None
        self._log = get_logger("obs.ops")

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> "OpsServer":
        """Bind and serve on a daemon thread; returns self (idempotent)."""
        if self._httpd is not None:
            return self
        handler = _make_handler(self)
        self._httpd = ThreadingHTTPServer((self.host, self._requested_port), handler)
        self._httpd.daemon_threads = True
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name=f"repro-ops-{self.port}",
            daemon=True,
        )
        self._thread.start()
        self._log.info(
            "ops endpoint listening", extra={"host": self.host, "port": self.port}
        )
        return self

    def stop(self) -> None:
        """Shut the endpoint down and join its thread (idempotent)."""
        httpd, self._httpd = self._httpd, None
        if httpd is None:
            return
        httpd.shutdown()
        httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    @property
    def port(self) -> int:
        """The bound port (the ephemeral one when constructed with 0)."""
        if self._httpd is not None:
            return self._httpd.server_address[1]
        return self._requested_port

    def url(self, path: str = "/metrics") -> str:
        """The full URL of one endpoint path on this server."""
        return f"http://{self.host}:{self.port}{path}"

    def __enter__(self) -> "OpsServer":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()

    # -- endpoint bodies ----------------------------------------------------
    def _metrics_body(self) -> str:
        if self.session is not None:
            try:
                self.session.publish_metrics()
            except Exception:  # noqa: BLE001 — a scrape must degrade, not 500
                self._log.warning("publish_metrics failed during scrape", exc_info=True)
        return self.registry.render_prometheus()

    def _health_body(self) -> tuple[int, dict[str, Any]]:
        if self.session is None:
            return 200, {"status": "ok", "scope": "process"}
        try:
            health = self.session.health()
        except Exception as error:  # noqa: BLE001 — report the probe failure itself
            return 503, {"status": "error", "error": repr(error)}
        status = 200 if health.get("status") == "ok" else 503
        return status, health

    def _stats_body(self) -> dict[str, Any]:
        if self.session is None:
            return {}
        return self.session.stats().to_dict()

    def _api_index_body(self) -> dict[str, Any]:
        from repro.gateway.wire import api_index

        index = api_index()
        gateway = getattr(self.session, "gateway", None)
        if gateway is not None:
            index["gateway"] = {"host": gateway.config.host, "port": gateway.port}
        return index


def _make_handler(ops: OpsServer) -> type:
    """Build the request-handler class bound to one :class:`OpsServer`."""
    # Pre-register the family (pinning its help text) on the series every
    # scrape will hit anyway.
    ops.registry.counter(
        "repro_ops_requests_total",
        "Ops endpoint requests served, by path and status code.",
        path="/metrics",
        code="200",
    )

    class Handler(BaseHTTPRequestHandler):
        server_version = "repro-ops/1"

        def do_GET(self) -> None:  # noqa: N802 — http.server's naming
            path = self.path.split("?", 1)[0]
            try:
                if path == "/metrics":
                    body = ops._metrics_body().encode("utf-8")
                    self._reply(200, PROMETHEUS_CONTENT_TYPE, body, path)
                elif path == "/healthz":
                    code, payload = ops._health_body()
                    body = json.dumps(payload, default=repr).encode("utf-8")
                    self._reply(code, "application/json", body, path)
                elif path == "/statsz":
                    body = json.dumps(ops._stats_body(), default=repr).encode("utf-8")
                    self._reply(200, "application/json", body, path)
                elif path in ("/v1", "/v1/"):
                    body = json.dumps(ops._api_index_body(), default=repr).encode("utf-8")
                    self._reply(200, "application/json", body, "/v1")
                else:
                    path = "other"  # one series for every unserved path, not one per probe
                    self._reply(404, "application/json", b'{"error": "not found"}', path)
            except Exception:  # noqa: BLE001 — one bad request must not kill the server
                ops._log.warning("ops request failed", exc_info=True, extra={"path": path})
                try:
                    self._reply(500, "application/json", b'{"error": "internal"}', path)
                except Exception:  # noqa: BLE001 — client already gone
                    pass

        def _reply(self, code: int, content_type: str, body: bytes, path: str) -> None:
            ops.registry.counter(
                "repro_ops_requests_total", path=path, code=str(code)
            ).inc()
            self.send_response(code)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, format: str, *args: Any) -> None:
            ops._log.debug("ops http: " + format % args)

    return Handler
