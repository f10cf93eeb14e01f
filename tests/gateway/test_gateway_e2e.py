"""End-to-end gateway behaviour over live HTTP connections.

The bar for each path: the *client-visible* contract — bitwise parity
with direct ``Session.submit``, the exact repro exception types
re-raised across the wire, deadline shedding before a Session slot is
spent, and 429 ``retry_after`` hints honoured by the client's
:class:`~repro.resilience.RetryPolicy`.
"""

from __future__ import annotations

import http.client
import json
import random
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

from repro.errors import (
    ClusterBusyError,
    DeadlineExceededError,
    EinsumError,
    GatewayAuthError,
    IndexOutOfBoundsError,
    TenantQuotaError,
    WireFormatError,
)
from repro.gateway import GatewayClient, GatewayConfig, GatewayServer
from repro.gateway.wire import (
    API_KEY_HEADER,
    DEADLINE_HEADER,
    JSON_CONTENT_TYPE,
    WireEncoder,
    decode_error,
    encode_error,
    encode_result,
)
from repro.obs.metrics import get_registry
from repro.resilience import RetryPolicy
from repro.runtime.server import InsumResult
from repro.serve import Future, ServeConfig, Session

SPMM_EXPR = "C[m,n] += A[m,k] * B[k,n]"


def submit_and_wait(client, operands, **kwargs):
    return client.submit(SPMM_EXPR, **kwargs, **operands).result(timeout=60)


def raw_exchange(port: int, request: bytes) -> bytes:
    """Send ``request`` on a fresh connection; everything read until it closes.

    The send runs on its own thread: a server that answers before reading
    the whole request must not deadlock the test on a full socket buffer.
    """
    sock = socket.create_connection(("127.0.0.1", port), timeout=30)

    def send() -> None:
        try:
            sock.sendall(request)
        except OSError:
            pass  # the server closed first; its reply is what is under test

    sender = threading.Thread(target=send)
    sender.start()
    chunks = []
    try:
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    except ConnectionResetError:
        pass
    finally:
        sender.join(timeout=30)
        sock.close()
    return b"".join(chunks)


# ---------------------------------------------------------------------------
# Parity with direct Session.submit
# ---------------------------------------------------------------------------
class TestParity:
    def test_binary_wire_is_bitwise_equal(self, inline_gateway, acme_client, spmm_operands):
        session, _ = inline_gateway
        direct = session.submit(SPMM_EXPR, **spmm_operands).result(timeout=60)
        for _ in range(3):  # repeats drive the blob_store -> cached path
            via_gateway = submit_and_wait(acme_client, spmm_operands)
            assert np.array_equal(direct, via_gateway)

    def test_json_wire_is_bitwise_equal(self, inline_gateway, spmm_operands):
        session, server = inline_gateway
        direct = session.submit(SPMM_EXPR, **spmm_operands).result(timeout=60)
        with GatewayClient(server.url(""), api_key="key-beta", binary=False) as client:
            assert np.array_equal(direct, submit_and_wait(client, spmm_operands))

    @pytest.mark.parametrize("backend", ["inline", "threaded", "cluster"])
    def test_backends_behind_gateway_agree(self, backend, spmm_operands):
        configs = {
            "inline": ServeConfig(),
            "threaded": ServeConfig(workers=2, coalesce=False),
            "cluster": ServeConfig(workers=2, worker_threads=1, coalesce=False),
        }
        with Session("inline") as reference_session:
            reference = reference_session.submit(SPMM_EXPR, **spmm_operands).result(timeout=60)
        with Session(backend, config=configs[backend]) as session:
            server = session.serve_gateway()
            with GatewayClient(server.url("")) as client:
                futures = client.submit_many(
                    [(SPMM_EXPR, spmm_operands)] * 4
                )
                for future in futures:
                    assert np.array_equal(reference, future.result(timeout=120))

    def test_submit_many_mixes_success_and_error(self, acme_client, spmm_operands):
        futures = acme_client.submit_many(
            [(SPMM_EXPR, spmm_operands), ("this is not an einsum", {"A": np.eye(3)})]
        )
        assert futures[0].result(timeout=60).shape == (32, 8)
        with pytest.raises(EinsumError):
            futures[1].result(timeout=60)

    def test_an_index_out_of_range_is_400_and_the_same_type(self, inline_gateway, acme_client):
        _, server = inline_gateway
        expression = "C[AM[p],n] += AV[p] * B[AK[p],n]"
        operands = dict(C=np.zeros((4, 2)), AV=np.ones(2), AM=np.arange(2))
        operands.update(B=np.arange(16.0).reshape(8, 2), AK=np.array([0, 99]))
        content_type, body = WireEncoder().encode_request(expression, operands, binary=False)
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
        try:
            headers = {"Content-Type": content_type, API_KEY_HEADER: "key-acme"}
            conn.request("POST", "/v1/submit", body=body, headers=headers)
            response = conn.getresponse()
            payload = json.loads(response.read())
        finally:
            conn.close()
        assert response.status == 400
        assert isinstance(decode_error(payload), IndexOutOfBoundsError)
        with pytest.raises(IndexOutOfBoundsError):
            acme_client.submit(expression, **operands).result(timeout=60)
        last_row, wrapped = (
            acme_client.submit(expression, **dict(operands, AK=np.array([0, k]))).result(timeout=60)
            for k in (7, -1)
        )
        np.testing.assert_array_equal(wrapped, last_row)


# ---------------------------------------------------------------------------
# Auth
# ---------------------------------------------------------------------------
class TestAuth:
    def test_missing_key_is_401(self, inline_gateway, spmm_operands):
        _, server = inline_gateway
        with GatewayClient(server.url("")) as client:
            with pytest.raises(GatewayAuthError) as excinfo:
                submit_and_wait(client, spmm_operands)
        assert excinfo.value.status == 401

    def test_unknown_key_is_403(self, inline_gateway, spmm_operands):
        _, server = inline_gateway
        with GatewayClient(server.url(""), api_key="key-wrong") as client:
            with pytest.raises(GatewayAuthError) as excinfo:
                submit_and_wait(client, spmm_operands)
        assert excinfo.value.status == 403

    def test_anonymous_gateway_needs_no_key(self, open_gateway, spmm_operands):
        _, server = open_gateway
        with GatewayClient(server.url("")) as client:
            assert submit_and_wait(client, spmm_operands).shape == (32, 8)


# ---------------------------------------------------------------------------
# Deadlines
# ---------------------------------------------------------------------------
class TestDeadlines:
    def test_expired_header_sheds_at_the_edge(self, inline_gateway, spmm_operands):
        # Raw HTTP so the client's own pre-flight deadline check cannot
        # fire first: the 504 must come from the server edge.
        _, server = inline_gateway
        content_type, body = WireEncoder().encode_request(
            SPMM_EXPR, spmm_operands, binary=False
        )
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
        try:
            conn.request(
                "POST",
                "/v1/submit",
                body=body,
                headers={
                    "Content-Type": content_type,
                    API_KEY_HEADER: "key-acme",
                    DEADLINE_HEADER: "0.000001",
                },
            )
            response = conn.getresponse()
            payload = json.loads(response.read())
        finally:
            conn.close()
        assert response.status == 504
        assert payload["error"]["type"] == "DeadlineExceededError"

    def test_client_deadline_raises_same_type(self, acme_client, spmm_operands):
        with pytest.raises(DeadlineExceededError):
            submit_and_wait(acme_client, spmm_operands, deadline_ms=0.000001)

    def test_malformed_deadline_header_is_400(self, inline_gateway, spmm_operands):
        _, server = inline_gateway
        content_type, body = WireEncoder().encode_request(
            SPMM_EXPR, spmm_operands, binary=False
        )
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
        try:
            conn.request(
                "POST",
                "/v1/submit",
                body=body,
                headers={
                    "Content-Type": content_type,
                    API_KEY_HEADER: "key-acme",
                    DEADLINE_HEADER: "soon",
                },
            )
            response = conn.getresponse()
            payload = json.loads(response.read())
        finally:
            conn.close()
        assert response.status == 400
        assert payload["error"]["type"] == "WireFormatError"


# ---------------------------------------------------------------------------
# Per-tenant quotas (stub session: settlement is under test control)
# ---------------------------------------------------------------------------
class _StubSession:
    """A Session double whose futures settle only when the test says so."""

    def __init__(self):
        self.futures: list[Future] = []
        self.submitted = threading.Event()

    def submit(self, expression, *, deadline_ms=None, **operands):
        future = Future(session=None)
        self.futures.append(future)
        self.submitted.set()
        return future

    def health(self):
        return {"status": "ok"}


class TestTenantQuotaE2E:
    def test_second_inflight_request_is_429(self, rng):
        stub = _StubSession()
        config = GatewayConfig(
            api_keys={"key-acme": "acme"},
            max_inflight_per_tenant=1,
            quota_retry_after=0.07,
        )
        with GatewayServer(stub, config=config) as server:
            no_retry = RetryPolicy(max_attempts=1)
            with GatewayClient(
                server.url(""), api_key="key-acme", retry_policy=no_retry
            ) as client:
                operands = {"A": rng.standard_normal((2, 2))}
                first = client.submit("e", **operands)
                assert stub.submitted.wait(timeout=30)
                # The slot is held while the first future is unsettled:
                # the next request must be shed with the quota's hint.
                with pytest.raises(TenantQuotaError) as excinfo:
                    client.submit("e", **operands).result(timeout=30)
                assert excinfo.value.tenant == "acme"
                assert excinfo.value.retry_after == 0.07
                output = np.ones((2, 2))
                stub.futures[0]._deliver(
                    InsumResult(request_id=0, expression="e", output=output)
                )
                assert np.array_equal(first.result(timeout=30), output)


# ---------------------------------------------------------------------------
# RetryPolicy honours 429 retry_after
# ---------------------------------------------------------------------------
class TestRetryAfter:
    def test_client_backs_off_at_least_retry_after(self, rng):
        output = rng.standard_normal((3, 3))
        arrivals: list[float] = []

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def do_POST(self):
                self.rfile.read(int(self.headers.get("Content-Length", 0)))
                arrivals.append(time.monotonic())
                if len(arrivals) == 1:
                    body = json.dumps(encode_error(ClusterBusyError(2, 2, 0.15))).encode()
                    status = 429
                    content_type = JSON_CONTENT_TYPE
                else:
                    content_type, body = encode_result(
                        {"latency_ms": 0.1}, output, binary=False
                    )
                    status = 200
                self.send_response(status)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, format, *args):
                pass

        httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        try:
            policy = RetryPolicy(
                max_attempts=3, base_delay=0.001, max_delay=1.0, rng=random.Random(7)
            )
            url = f"http://127.0.0.1:{httpd.server_address[1]}"
            with GatewayClient(url, retry_policy=policy) as client:
                result = client.submit("e", A=np.eye(2)).result(timeout=30)
            assert np.array_equal(result, output)
            assert len(arrivals) == 2
            # The drawn backoff is floored by the server's hint.
            assert arrivals[1] - arrivals[0] >= 0.15
        finally:
            httpd.shutdown()
            httpd.server_close()
            thread.join(timeout=5)

    def test_no_retry_policy_gives_up_immediately(self, rng):
        calls: list[float] = []

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def do_POST(self):
                self.rfile.read(int(self.headers.get("Content-Length", 0)))
                calls.append(time.monotonic())
                body = json.dumps(encode_error(ClusterBusyError(2, 2, 0.01))).encode()
                self.send_response(429)
                self.send_header("Content-Type", JSON_CONTENT_TYPE)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, format, *args):
                pass

        httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        try:
            url = f"http://127.0.0.1:{httpd.server_address[1]}"
            with GatewayClient(url, retry_policy=RetryPolicy(max_attempts=1)) as client:
                with pytest.raises(ClusterBusyError):
                    client.submit("e", A=np.eye(2)).result(timeout=30)
            assert len(calls) == 1
        finally:
            httpd.shutdown()
            httpd.server_close()
            thread.join(timeout=5)


# ---------------------------------------------------------------------------
# Observability through the gateway
# ---------------------------------------------------------------------------
class TestObservability:
    def test_request_counters_carry_tenant_and_outcome(
        self, inline_gateway, acme_client, spmm_operands
    ):
        registry = get_registry()
        ok = registry.counter("repro_gateway_requests_total", tenant="acme", outcome="ok")
        before = ok.value()
        submit_and_wait(acme_client, spmm_operands)
        assert ok.value() == before + 1

    def test_auth_failures_count_against_presented_identity(
        self, inline_gateway, spmm_operands
    ):
        _, server = inline_gateway
        registry = get_registry()
        unauthorized = registry.counter(
            "repro_gateway_requests_total", tenant="anonymous", outcome="unauthorized"
        )
        before = unauthorized.value()
        with GatewayClient(server.url("")) as client:
            with pytest.raises(GatewayAuthError):
                submit_and_wait(client, spmm_operands)
        assert unauthorized.value() == before + 1

    def test_trace_spans_cover_the_gateway_path(self, acme_client, spmm_operands):
        future = acme_client.submit(SPMM_EXPR, **spmm_operands)
        future.result(timeout=60)
        trace = future.trace()
        assert trace is not None
        names = {span.name for span in trace.spans()}
        # Gateway-side spans AND session-side spans in one trace: proof
        # the server merged the settled future's trace into the response.
        assert {"gateway.decode", "gateway.wait", "gateway.respond"} <= names
        assert "execute" in names

    def test_index_lists_the_ops_routes(self, inline_gateway, acme_client):
        _, server = inline_gateway
        payload = acme_client.api_index()
        assert payload["api_version"] == "v1"
        assert payload["gateway"]["port"] == server.port
        assert {"GET /metrics", "GET /v1/statsz"} <= set(payload["endpoints"])


# ---------------------------------------------------------------------------
# Surface and lifecycle
# ---------------------------------------------------------------------------
class TestSurface:
    def test_health_and_index(self, acme_client):
        health = acme_client.health()
        assert health["http_status"] == 200
        assert health["status"] == "ok"
        index = acme_client.api_index()
        assert index["api_version"] == "v1"
        assert "POST /v1/submit" in index["endpoints"]

    def test_unknown_path_is_404_and_wrong_method_is_405(self, acme_client):
        status, _, _ = acme_client._simple_request("GET", "/nope")
        assert status == 404
        status, _, _ = acme_client._simple_request("GET", "/v1/submit")
        assert status == 405

    def test_header_flood_is_431_and_closes(self, acme_client, inline_gateway):
        _, server = inline_gateway
        flood = b"".join(b"X-Flood-%05d: %s\r\n" % (i, b"v" * 84) for i in range(20_000))
        reply = raw_exchange(server.port, b"GET /v1 HTTP/1.1\r\n" + flood + b"\r\n")
        assert reply.startswith(b"HTTP/1.1 431 ")
        assert reply.count(b"HTTP/1.1 ") == 1
        assert acme_client.api_index()["api_version"] == "v1"  # a new connection is served

    def test_a_header_line_over_the_stream_limit_is_431(
        self, acme_client, inline_gateway, monkeypatch
    ):
        _, server = inline_gateway
        warnings = []
        monkeypatch.setattr(server._log, "warning", lambda *a, **k: warnings.append(a))
        line = b"X-Long: " + b"v" * (1 << 17) + b"\r\n"
        reply = raw_exchange(server.port, b"GET /v1 HTTP/1.1\r\n" + line + b"\r\n")
        assert reply.startswith(b"HTTP/1.1 431 ")
        assert reply.count(b"HTTP/1.1 ") == 1
        assert warnings == []
        assert acme_client.api_index()["api_version"] == "v1"  # a new connection is served

    def test_101_short_header_lines_are_431(self, inline_gateway):
        _, server = inline_gateway
        fields = b"".join(b"X-Field-%03d: v\r\n" % i for i in range(101))
        reply = raw_exchange(server.port, b"GET /v1 HTTP/1.1\r\n" + fields + b"\r\n")
        assert reply.startswith(b"HTTP/1.1 431 ")
        assert reply.count(b"HTTP/1.1 ") == 1

    def test_chunked_request_gets_one_501_and_closes(self, inline_gateway):
        _, server = inline_gateway
        request = (
            b"POST /v1/submit HTTP/1.1\r\nX-Repro-Api-Key: key-acme\r\n"
            b"Content-Type: application/json\r\nTransfer-Encoding: chunked\r\n\r\n"
            b"2\r\n{}\r\n0\r\n\r\n"
        )
        reply = raw_exchange(server.port, request)
        assert reply.startswith(b"HTTP/1.1 501 ")
        assert reply.count(b"HTTP/1.1 ") == 1

    def test_binary_disabled_gateway_rejects_binary_wire(self, spmm_operands):
        with Session("inline") as session:
            server = session.serve_gateway(config=GatewayConfig(binary=False))
            with GatewayClient(server.url(""), binary=True) as client:
                with pytest.raises(WireFormatError):
                    submit_and_wait(client, spmm_operands)
            with GatewayClient(server.url(""), binary=False) as client:
                assert submit_and_wait(client, spmm_operands).shape == (32, 8)

    def test_session_from_env_starts_and_stops_the_gateway(
        self, monkeypatch, spmm_operands
    ):
        monkeypatch.setenv("REPRO_GATEWAY_PORT", "0")
        monkeypatch.setenv("REPRO_GATEWAY_API_KEYS", "env-key=envtenant")
        session = Session.from_env()
        try:
            server = session.gateway
            assert server is not None
            with GatewayClient(server.url(""), api_key="env-key") as client:
                assert submit_and_wait(client, spmm_operands).shape == (32, 8)
        finally:
            session.close()
        assert session.gateway is None

    def test_stop_is_idempotent_and_refuses_traffic(self, spmm_operands):
        session = Session("inline")
        server = GatewayServer(session, config=GatewayConfig()).start()
        port = server.port
        server.stop()
        server.stop()
        with pytest.raises(OSError):
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=2)
            try:
                conn.request("GET", "/v1")
                conn.getresponse()
            finally:
                conn.close()
        session.close()
