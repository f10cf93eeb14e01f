"""GatewayServer: the asyncio HTTP front door over a serve Session.

A stdlib-only (``asyncio`` + manual HTTP/1.1) server exposing the
versioned ``/v1`` wire API:

* ``GET /v1`` — the machine-readable API index.
* ``GET /v1/healthz`` — the session's liveness probe (200/503).
* ``POST /v1/submit`` / ``POST /v1/submit_many`` — execute requests,
  JSON or binary operand encoding (see :mod:`repro.gateway.wire`).
* ``GET /metrics`` — the process registry in Prometheus text, the
  session's ``repro_serve_*`` gauges refreshed first.
* ``GET /v1/statsz`` — the session's ``ServeStats`` window as JSON.

``/metrics`` and ``/v1/statsz`` take the API key as submit does (open
without a keyring) and are not counted as gateway requests; they and
``/v1/healthz`` read the session on the executor, never on the loop.

Request flow per connection: authenticate (keyring -> tenant), decode
(the per-connection :class:`~repro.gateway.wire.WireDecoder` applies
cache effects *before* any gate can reject, keeping the client/server
mirrors in sync even across rejections), shed expired deadlines at the
edge (an ``X-Repro-Deadline-Ms`` budget that is already spent becomes a
504 without touching the session), acquire the tenant's admission quota,
then ride :meth:`~repro.serve.Session.submit` through the event loop's
executor with completion bridged back via ``call_soon_threadsafe`` — the
same non-blocking bridge as ``Session.asubmit``, kept inline here so the
gateway can read the settled future's latency and trace.

Every request lands in ``repro_gateway_requests_total{tenant,outcome}``
and the per-tenant latency histogram; with tracing on (or a client trace
id propagated via ``X-Repro-Trace-Id``) the gateway stamps
``gateway.decode`` / ``gateway.wait`` / ``gateway.respond`` spans and
merges the session-side trace into the response.
"""

from __future__ import annotations

import asyncio
import functools
import json
import math
import threading
import time
from typing import Any, Callable, Mapping

from repro.errors import (
    ClusterBusyError,
    DeadlineExceededError,
    EinsumError,
    FormatError,
    GatewayAuthError,
    GatewayError,
    TenantQuotaError,
    WireFormatError,
)
from repro.gateway.auth import Authenticator, TenantQuota
from repro.gateway.config import GatewayConfig
from repro.gateway.wire import (
    API_KEY_HEADER,
    BINARY_CONTENT_TYPE,
    DEADLINE_HEADER,
    JSON_CONTENT_TYPE,
    MAX_HEAD_BYTES,
    MAX_HEADER_LINES,
    TRACE_HEADER,
    WireDecoder,
    api_index,
    encode_batch_results,
    encode_error,
    encode_result,
    http_status,
    parse_head,
)
from repro.obs import trace as obs_trace
from repro.obs.logs import get_logger
from repro.obs.metrics import DEFAULT_LATENCY_BUCKETS_MS, PROMETHEUS_CONTENT_TYPE, get_registry
from repro.resilience.deadline import Deadline, deadline_error
from repro.serve.future import Future

__all__ = ["GatewayServer"]

_REASONS = {
    200: "OK",
    400: "Bad Request",
    401: "Unauthorized",
    403: "Forbidden",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    422: "Unprocessable Entity",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


def _outcome(error: BaseException | None) -> str:
    """The metrics outcome label for one request's terminal state."""
    if error is None:
        return "ok"
    if isinstance(error, TenantQuotaError):
        return "quota"
    if isinstance(error, GatewayAuthError):
        return "unauthorized" if error.status == 401 else "forbidden"
    if isinstance(error, ClusterBusyError):
        return "rejected"
    if isinstance(error, DeadlineExceededError):
        return "deadline"
    if isinstance(error, (WireFormatError, EinsumError, FormatError)):
        return "bad_request"
    return "error"


class GatewayServer:
    """One HTTP gateway bound to one :class:`~repro.serve.Session`.

    Runs its own event loop on a daemon thread (the session API is
    synchronous; the gateway must not require the host application to be
    async), accepting connections with :func:`asyncio.start_server` and
    parsing HTTP/1.1 by hand — no third-party server dependency.

    Parameters
    ----------
    session:
        The serve session every request executes through; not owned —
        closing the gateway leaves the session open (but
        :meth:`Session.close` stops a gateway it started).
    config:
        A validated :class:`~repro.gateway.config.GatewayConfig`;
        ``None`` means all defaults (loopback, ephemeral port, no auth).
    """

    def __init__(self, session: Any, config: GatewayConfig | None = None):
        config = config if config is not None else GatewayConfig()
        config.validate()
        self.session = session
        self.config = config
        self._auth = Authenticator(config.api_keys)
        self._quota = TenantQuota(config)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._server: asyncio.base_events.Server | None = None
        self._log = get_logger("gateway.server")
        registry = get_registry()
        # Pre-register both families so the help text is pinned before the first scrape.
        registry.counter(
            "repro_gateway_requests_total",
            "Gateway requests served, by tenant and outcome.",
            tenant="anonymous",
            outcome="ok",
        )
        registry.histogram(
            "repro_gateway_request_latency_ms",
            "End-to-end gateway request latency (receive to response encode).",
            buckets=DEFAULT_LATENCY_BUCKETS_MS,
            tenant="anonymous",
        )

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> "GatewayServer":
        """Bind and serve on a daemon-thread event loop (idempotent)."""
        if self._thread is not None:
            return self
        started = threading.Event()
        failure: list[BaseException] = []
        self._loop = asyncio.new_event_loop()

        def run() -> None:
            assert self._loop is not None
            asyncio.set_event_loop(self._loop)
            try:
                self._server = self._loop.run_until_complete(
                    asyncio.start_server(
                        self._handle_connection,
                        self.config.host,
                        self.config.port,
                        limit=MAX_HEAD_BYTES,
                    )
                )
            except BaseException as error:  # noqa: BLE001 — surfaced to start()
                failure.append(error)
                started.set()
                return
            started.set()
            try:
                self._loop.run_forever()
            finally:
                self._server.close()
                self._loop.run_until_complete(self._server.wait_closed())
                # Cancel handler tasks still parked on keep-alive reads so
                # the loop closes without "task was destroyed" noise.
                leftovers = asyncio.all_tasks(self._loop)
                for task in leftovers:
                    task.cancel()
                if leftovers:
                    self._loop.run_until_complete(
                        asyncio.gather(*leftovers, return_exceptions=True)
                    )
                self._loop.close()

        self._thread = threading.Thread(target=run, name="repro-gateway", daemon=True)
        self._thread.start()
        started.wait(timeout=10.0)
        if failure:
            self._thread.join(timeout=5.0)
            self._thread = None
            self._loop = None
            raise GatewayError(f"gateway failed to bind: {failure[0]!r}") from failure[0]
        self._log.info(
            "gateway listening",
            extra={"host": self.config.host, "port": self.port},
        )
        return self

    def stop(self) -> None:
        """Stop accepting, close the loop, and join the thread (idempotent)."""
        thread, self._thread = self._thread, None
        if thread is None:
            return
        assert self._loop is not None
        self._loop.call_soon_threadsafe(self._loop.stop)
        thread.join(timeout=10.0)
        self._loop = None
        self._server = None

    @property
    def port(self) -> int:
        """The bound TCP port (the ephemeral one when configured with 0)."""
        if self._server is not None and self._server.sockets:
            return self._server.sockets[0].getsockname()[1]
        return self.config.port

    def url(self, path: str = "/v1") -> str:
        """The full URL of one endpoint path on this gateway."""
        return f"http://{self.config.host}:{self.port}{path}"

    def __enter__(self) -> "GatewayServer":
        """Start the gateway on context entry."""
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        """Stop the gateway on context exit."""
        self.stop()

    # -- connection handling ------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        decoder = WireDecoder()
        try:
            while True:
                request = await self._read_request(reader, writer)
                if request is None:
                    break
                method, path, headers, body = request
                keep_alive = headers.get("connection", "").lower() != "close"
                await self._dispatch(method, path, headers, body, decoder, writer, keep_alive)
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            pass  # shutdown cancelled a keep-alive read; fall through to close
        except Exception:  # noqa: BLE001 — one bad connection must not kill the loop
            self._log.warning("gateway connection failed", exc_info=True)
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (Exception, asyncio.CancelledError):  # noqa: BLE001 — peer gone
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> tuple[str, str, dict[str, str], bytes] | None:
        try:
            parsed = parse_head(await reader.readuntil(b"\r\n\r\n"), MAX_HEADER_LINES)
        except asyncio.LimitOverrunError:
            parsed = None
        if parsed is None:
            limits = f"{MAX_HEADER_LINES} header lines or {MAX_HEAD_BYTES} bytes"
            await self._refuse(writer, 431, f"a request head over {limits}")
            return None
        start, headers = parsed
        if len(start) < 2:
            await self._respond_error(writer, WireFormatError("malformed request line"),
                                      keep_alive=False)
            return None
        method, target = start[0].upper(), start[1]
        if "transfer-encoding" in headers:
            # Only Content-Length framing is read: an unread chunked body
            # would be parsed as the next request (RFC 9112 section 6.1).
            await self._refuse(writer, 501, "Transfer-Encoding is not supported")
            return None
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            length = -1
        if length < 0 or length > self.config.max_body_bytes:
            await self._respond_error(
                writer,
                WireFormatError(
                    f"request body of {length} bytes exceeds the "
                    f"{self.config.max_body_bytes}-byte limit"
                ),
                keep_alive=False,
            )
            return None
        body = await reader.readexactly(length) if length else b""
        return method, target.split("?", 1)[0], headers, body

    async def _dispatch(
        self,
        method: str,
        path: str,
        headers: Mapping[str, str],
        body: bytes,
        decoder: WireDecoder,
        writer: asyncio.StreamWriter,
        keep_alive: bool,
    ) -> None:
        if path in ("/v1/submit", "/v1/submit_many") and method == "POST":
            await self._handle_submit(
                headers, body, decoder, writer,
                batch=path.endswith("submit_many"), keep_alive=keep_alive,
            )
            return
        if path in ("/v1", "/v1/") and method == "GET":
            index = dict(api_index(), gateway={"host": self.config.host, "port": self.port})
            await self._respond_json(writer, 200, index, keep_alive=keep_alive)
            return
        if path == "/v1/healthz" and method == "GET":
            try:
                health = await self._off_loop(self.session.health)
            except Exception as error:  # noqa: BLE001 — report the probe failure itself
                await self._respond_json(
                    writer, 503, {"status": "error", "error": repr(error)},
                    keep_alive=keep_alive,
                )
                return
            code = 200 if health.get("status") == "ok" else 503
            await self._respond_json(writer, code, health, keep_alive=keep_alive)
            return
        if path in ("/metrics", "/v1/statsz") and method == "GET":
            try:
                self._auth.authenticate(headers.get(API_KEY_HEADER.lower()))
            except GatewayAuthError as error:
                await self._respond_error(writer, error, keep_alive=keep_alive)
                return
            if path == "/metrics":
                text = await self._off_loop(self._scrape)
                await self._write(writer, 200, PROMETHEUS_CONTENT_TYPE, text, keep_alive=keep_alive)
            else:
                stats = await self._off_loop(lambda: self.session.stats().to_dict())
                await self._respond_json(writer, 200, stats, keep_alive=keep_alive)
            return
        if path.startswith("/v1"):
            error: BaseException = GatewayError(f"no such endpoint: {method} {path}")
            status = 405 if path in ("/v1/submit", "/v1/submit_many") else 404
            await self._respond_json(
                writer, status, encode_error(error), keep_alive=keep_alive
            )
            return
        await self._respond_json(
            writer, 404, encode_error(GatewayError(f"not found: {path}")),
            keep_alive=keep_alive,
        )

    @staticmethod
    async def _off_loop(read: Callable[[], Any]) -> Any:
        """Run one blocking session read on the executor, off the loop."""
        return await asyncio.get_running_loop().run_in_executor(None, read)

    def _scrape(self) -> bytes:
        """The ``/metrics`` body: the session's gauges refreshed, then the registry."""
        try:
            self.session.publish_metrics()
        except Exception:  # noqa: BLE001 — a scrape must degrade, not 500
            self._log.warning("publish_metrics failed during scrape", exc_info=True)
        return get_registry().render_prometheus().encode("utf-8")

    # -- the submit path ----------------------------------------------------
    async def _handle_submit(
        self,
        headers: Mapping[str, str],
        body: bytes,
        decoder: WireDecoder,
        writer: asyncio.StreamWriter,
        batch: bool,
        keep_alive: bool,
    ) -> None:
        started = time.perf_counter()
        content_type = headers.get("content-type", JSON_CONTENT_TYPE)
        binary = content_type.split(";", 1)[0].strip().lower() == BINARY_CONTENT_TYPE
        trace_id = headers.get(TRACE_HEADER.lower())
        trace = obs_trace.Trace(trace_id) if trace_id else obs_trace.maybe_start()
        if trace is not None:
            trace.stamp("gateway.recv")
        tenant = "anonymous"
        try:
            tenant = self._auth.authenticate(headers.get(API_KEY_HEADER.lower()))
            if binary and not self.config.binary:
                raise WireFormatError("binary operand encoding is disabled on this gateway")
            # Decode before any gate can reject: the per-connection cache
            # mirror must advance on every request the client encoded,
            # or a post-rejection retry's ("cached"/"pattern") references
            # would dangle server-side.
            requests = decoder.decode_request(content_type, body)
            if trace is not None:
                trace.stamp("gateway.decoded")
                trace.span_between("gateway.decode", "gateway.recv", "gateway.decoded")
            deadline = self._parse_deadline(headers)
            if not batch and len(requests) != 1:
                raise WireFormatError("/v1/submit takes exactly one request; "
                                      "use /v1/submit_many for batches")
        except BaseException as error:  # noqa: BLE001 — every failure becomes a response
            self._observe(tenant, _outcome(error), started)
            await self._respond_error(writer, error, keep_alive=keep_alive, trace=trace)
            return

        items = [
            await self._execute(tenant, expression, operands, deadline, trace)
            for expression, operands in requests
        ]
        for item in items:
            self._observe(tenant, _outcome(item.get("error")), started)
        if trace is not None:
            trace.stamp("gateway.result")
        if batch:
            await self._respond_batch(writer, items, binary, keep_alive, trace)
        else:
            await self._respond_single(writer, items[0], binary, keep_alive, trace)

    def _parse_deadline(self, headers: Mapping[str, str]) -> Deadline | None:
        raw = headers.get(DEADLINE_HEADER.lower())
        if raw is None or not raw.strip():
            return None
        try:
            budget_ms = float(raw)
        except ValueError:
            raise WireFormatError(
                f"{DEADLINE_HEADER} must be a number of milliseconds, got {raw!r}"
            ) from None
        return Deadline.after_ms(budget_ms)

    async def _execute(
        self,
        tenant: str,
        expression: str,
        operands: dict[str, Any],
        deadline: Deadline | None,
        trace: obs_trace.Trace | None,
    ) -> dict[str, Any]:
        """Run one decoded request through the session; never raises."""
        try:
            self._quota.acquire(tenant)
        except TenantQuotaError as error:
            return {"error": error, "status": http_status(error)}
        try:
            remaining_ms: float | None = None
            if deadline is not None:
                if deadline.expired():
                    # Shed at the edge: the deadline budget is already
                    # spent, so no Session slot is consumed.
                    error: BaseException = deadline_error(-1, "gateway")
                    return {"error": error, "status": http_status(error)}
                remaining_ms = deadline.remaining_s() * 1e3
            settled = await self._submit_and_wait(expression, operands, remaining_ms, trace)
            try:
                output = settled.result(timeout=0)
            except BaseException as error:  # noqa: BLE001 — mapped to a wire error
                return {"error": error, "status": http_status(error)}
            item: dict[str, Any] = {"output": output}
            if settled.latency_ms is not None:
                item["latency_ms"] = settled.latency_ms
            session_trace = settled.trace()
            if trace is not None and session_trace is not None:
                trace.merge(session_trace.export())
            return item
        except BaseException as error:  # noqa: BLE001 — submit-time failures
            return {"error": error, "status": http_status(error)}
        finally:
            self._quota.release(tenant)

    async def _submit_and_wait(
        self,
        expression: str,
        operands: dict[str, Any],
        deadline_ms: float | None,
        trace: obs_trace.Trace | None,
    ) -> Future:
        """Submit via the executor and await the settled serve future.

        The same bridge as :meth:`~repro.serve.Session.asubmit`, inlined
        so the gateway gets the settled :class:`~repro.serve.Future`
        back (for ``latency_ms`` and the session-side trace) instead of
        just the output array.
        """
        loop = asyncio.get_running_loop()
        if trace is not None:
            trace.stamp("gateway.submit")
        submit = functools.partial(
            self.session.submit, expression, deadline_ms=deadline_ms, **operands
        )
        future: Future = await loop.run_in_executor(None, submit)
        done: asyncio.Future[Future] = loop.create_future()

        def transfer(settled: Future) -> None:
            def apply() -> None:
                if not done.done():
                    done.set_result(settled)

            loop.call_soon_threadsafe(apply)

        future.add_done_callback(transfer)
        settled = await done
        if trace is not None:
            trace.stamp("gateway.settled")
            trace.span_between("gateway.wait", "gateway.submit", "gateway.settled")
        return settled

    # -- responses ----------------------------------------------------------
    def _observe(self, tenant: str, outcome: str, started: float) -> None:
        registry = get_registry()
        registry.counter(
            "repro_gateway_requests_total", tenant=tenant, outcome=outcome
        ).inc()
        registry.histogram(
            "repro_gateway_request_latency_ms",
            buckets=DEFAULT_LATENCY_BUCKETS_MS,
            tenant=tenant,
        ).observe((time.perf_counter() - started) * 1e3)

    def _trace_meta(self, trace: obs_trace.Trace | None) -> dict[str, Any]:
        if trace is None:
            return {}
        trace.stamp("gateway.respond")
        trace.span_between("gateway.respond", "gateway.result", "gateway.respond")
        obs_trace.maybe_log_trace(trace)
        return {"trace": trace.export()}

    async def _respond_single(
        self,
        writer: asyncio.StreamWriter,
        item: dict[str, Any],
        binary: bool,
        keep_alive: bool,
        trace: obs_trace.Trace | None,
    ) -> None:
        if "error" in item:
            await self._respond_error(
                writer, item["error"], keep_alive=keep_alive, trace=trace
            )
            return
        meta = {key: value for key, value in item.items() if key != "output"}
        meta.update(self._trace_meta(trace))
        content_type, body = encode_result(meta, item["output"], binary)
        await self._write(
            writer, 200, content_type, body, keep_alive=keep_alive, trace=trace
        )

    async def _respond_batch(
        self,
        writer: asyncio.StreamWriter,
        items: list[dict[str, Any]],
        binary: bool,
        keep_alive: bool,
        trace: obs_trace.Trace | None,
    ) -> None:
        content_type, body = encode_batch_results(items, binary)
        if trace is not None and not binary:
            # Rebuild with the trace attached (JSON only; the binary
            # header is already framed around the shared payload).
            parsed = json.loads(body.decode("utf-8"))
            parsed.update(self._trace_meta(trace))
            body = json.dumps(parsed).encode("utf-8")
        await self._write(
            writer, 200, content_type, body, keep_alive=keep_alive, trace=trace
        )

    async def _respond_json(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Mapping[str, Any],
        keep_alive: bool,
        extra_headers: Mapping[str, str] | None = None,
    ) -> None:
        body = json.dumps(payload, default=repr).encode("utf-8")
        await self._write(
            writer, status, JSON_CONTENT_TYPE, body,
            keep_alive=keep_alive, extra_headers=extra_headers,
        )

    async def _refuse(self, writer: asyncio.StreamWriter, status: int, message: str) -> None:
        """Answer a request the framing cannot read, and close the connection."""
        error = encode_error(WireFormatError(message))
        await self._respond_json(writer, status, error, keep_alive=False)

    async def _respond_error(
        self,
        writer: asyncio.StreamWriter,
        error: BaseException,
        keep_alive: bool,
        trace: obs_trace.Trace | None = None,
    ) -> None:
        status = http_status(error)
        payload = encode_error(error)
        if trace is not None:
            trace.stamp("gateway.result")
            payload.update(self._trace_meta(trace))
        extra: dict[str, str] = {}
        retry_after = getattr(error, "retry_after", None)
        if status == 429 and retry_after is not None:
            extra["Retry-After"] = str(max(1, math.ceil(float(retry_after))))
        await self._respond_json(
            writer, status, payload, keep_alive=keep_alive, extra_headers=extra
        )

    async def _write(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        content_type: str,
        body: bytes,
        keep_alive: bool,
        extra_headers: Mapping[str, str] | None = None,
        trace: obs_trace.Trace | None = None,
    ) -> None:
        reason = _REASONS.get(status, "Error")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        )
        if trace is not None:
            head += f"{TRACE_HEADER}: {trace.trace_id}\r\n"
        for name, value in (extra_headers or {}).items():
            head += f"{name}: {value}\r\n"
        head += "\r\n"
        writer.write(head.encode("latin1") + body)
        await writer.drain()
