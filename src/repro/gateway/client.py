"""GatewayClient: the Session-shaped HTTP client for the gateway.

Speaks the ``/v1`` wire API with the same ``submit() -> Future`` surface
as :class:`repro.serve.Session`, so everything written against a session
— the replay harness first among them — runs over real HTTP unchanged.
``submit`` never blocks on the network: the request is handed to a small
worker pool and the returned :class:`~repro.serve.Future` is resolved
when the response lands, preserving the open-loop property replay
depends on.

Each worker thread owns one persistent keep-alive connection *and* the
:class:`~repro.gateway.wire.WireEncoder` paired with it — the
client-side half of the per-connection cache mirror.  A connection that
dies takes its encoder with it (the server's decoder caches died with
the connection, so a surviving encoder would emit dangling
``["cached", ...]`` / ``["pattern", ...]`` references); the replacement
pair starts cold and re-ships.

Failures come back as the *same* :mod:`repro.errors` types the server
raised (rebuilt by :func:`~repro.gateway.wire.decode_error`), which is
what lets the configured :class:`~repro.resilience.retry.RetryPolicy`
treat a 429 :class:`~repro.errors.TenantQuotaError` exactly like a local
admission rejection — including flooring the backoff on the body's
``retry_after`` hint.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Mapping
from urllib.parse import urlsplit

import numpy as np

from repro.errors import GatewayError, ReproError, SessionClosedError, WireFormatError
from repro.gateway.wire import (
    API_KEY_HEADER,
    DEADLINE_HEADER,
    TRACE_HEADER,
    WireEncoder,
    decode_error,
    decode_result_body,
    decode_result_entry,
)
from repro.obs import trace as obs_trace
from repro.resilience.deadline import Deadline, deadline_error
from repro.resilience.retry import RetryPolicy
from repro.runtime.request import InsumResult
from repro.serve.future import Future

__all__ = ["GatewayClient"]


class GatewayClient:
    """An HTTP client exposing the Session submit surface over a gateway.

    Parameters
    ----------
    base_url:
        The gateway's root URL, e.g. ``"http://127.0.0.1:8421"`` (a
        trailing ``/v1`` is tolerated and stripped).
    api_key:
        Default API key sent as ``X-Repro-Api-Key`` (None = no key).
    tenant_keys:
        Tenant name -> API key; ``submit(..., tenant=...)`` picks the
        tenant's key, falling back to ``api_key``.  This is what lets
        one replay run exercise per-tenant accounting end to end.
    binary:
        Encode operands in the ``RGW1`` binary frame (cache-aware, the
        default) or in stateless JSON.
    retry_policy:
        The :class:`~repro.resilience.retry.RetryPolicy` applied to
        retryable failures (admission/quota rejections, worker crashes);
        None installs the default policy.  Pass ``max_attempts=1`` to
        disable retries.
    timeout:
        Socket timeout in seconds for connect/read on each connection.
    max_connections:
        Worker threads — and therefore concurrent keep-alive
        connections, each with its own encoder mirror.
    """

    #: Replay integration: the runner labels metrics with this name.
    backend_name = "gateway"
    #: Replay integration: the runner passes ``tenant=`` when True.
    accepts_tenant = True

    def __init__(
        self,
        base_url: str,
        *,
        api_key: str | None = None,
        tenant_keys: Mapping[str, str] | None = None,
        binary: bool = True,
        retry_policy: RetryPolicy | None = None,
        timeout: float = 30.0,
        max_connections: int = 8,
    ):
        parts = urlsplit(base_url if "//" in base_url else f"//{base_url}", scheme="http")
        if parts.scheme != "http":
            raise GatewayError(f"only http:// gateways are supported, got {base_url!r}")
        if parts.hostname is None or parts.port is None:
            raise GatewayError(f"base_url needs host and port, got {base_url!r}")
        self._host = parts.hostname
        self._port = parts.port
        self._api_key = api_key
        self._tenant_keys = dict(tenant_keys) if tenant_keys else {}
        self.binary = binary
        self._retry = retry_policy if retry_policy is not None else RetryPolicy()
        self._timeout = timeout
        self._local = threading.local()
        self._conns: list[http.client.HTTPConnection] = []
        self._conns_lock = threading.Lock()
        self._closed = False
        self._pool = ThreadPoolExecutor(
            max_workers=max(1, max_connections), thread_name_prefix="repro-gateway-client"
        )

    # -- the Session surface -------------------------------------------------
    def submit(
        self,
        expression: str,
        *,
        deadline_ms: float | None = None,
        tenant: str | None = None,
        **operands: Any,
    ) -> Future:
        """Submit one expression over HTTP; returns a resolving Future.

        Never blocks on the network: encoding, the request, and retries
        all run on the client's worker pool, and the future is resolved
        — with the result array, or with the *same* repro exception type
        the server raised — when the exchange settles.

        Parameters
        ----------
        expression:
            The Einsum expression string.
        deadline_ms:
            End-to-end budget, carried as ``X-Repro-Deadline-Ms`` and
            shrunk across retries; an exhausted budget fails client-side
            without another request.
        tenant:
            Selects the API key from ``tenant_keys`` (falls back to the
            default ``api_key``).
        **operands:
            Operand arrays / sparse formats / scalars, by name.
        """
        future = Future(session=None)
        deadline = None if deadline_ms is None else Deadline.after_ms(deadline_ms)
        started = time.perf_counter()
        try:
            self._pool.submit(
                self._run_single, future, expression, operands, deadline, tenant, started
            )
        except RuntimeError:
            future._reject(SessionClosedError("the gateway client is closed"))
        return future

    def submit_many(
        self,
        requests: list[tuple[str, Mapping[str, Any]]],
        *,
        deadline_ms: float | None = None,
        tenant: str | None = None,
    ) -> list[Future]:
        """Submit a batch through ``/v1/submit_many``; one Future per request.

        The whole batch rides one HTTP exchange (binary batches share a
        single payload blob); each future settles independently with its
        request's result or rebuilt error.

        Parameters
        ----------
        requests:
            ``(expression, operands)`` pairs, in order.
        deadline_ms:
            One budget for the whole batch (header-carried).
        tenant:
            API-key selector, as for :meth:`submit`.
        """
        futures = [Future(session=None) for _ in requests]
        deadline = None if deadline_ms is None else Deadline.after_ms(deadline_ms)
        started = time.perf_counter()
        try:
            self._pool.submit(
                self._run_batch, futures, list(requests), deadline, tenant, started
            )
        except RuntimeError:
            for future in futures:
                future._reject(SessionClosedError("the gateway client is closed"))
        return futures

    def close(self) -> None:
        """Shut the worker pool down and close every connection (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._pool.shutdown(wait=True)
        with self._conns_lock:
            conns, self._conns = self._conns, []
        for conn in conns:
            try:
                conn.close()
            except Exception:  # noqa: BLE001 — already dead is fine
                pass

    def __enter__(self) -> "GatewayClient":
        """Context-manager entry: the client itself."""
        return self

    def __exit__(self, *exc: Any) -> None:
        """Context-manager exit closes the client."""
        self.close()

    # -- control-plane helpers ----------------------------------------------
    def health(self) -> dict[str, Any]:
        """``GET /v1/healthz``: the session's health document."""
        status, _, body = self._simple_request("GET", "/v1/healthz")
        document = json.loads(body.decode("utf-8"))
        document["http_status"] = status
        return document

    def api_index(self) -> dict[str, Any]:
        """``GET /v1``: the gateway's machine-readable API index."""
        status, _, body = self._simple_request("GET", "/v1")
        if status != 200:
            raise GatewayError(f"GET /v1 returned {status}")
        return json.loads(body.decode("utf-8"))

    # -- request execution ---------------------------------------------------
    def _run_single(
        self,
        future: Future,
        expression: str,
        operands: Mapping[str, Any],
        deadline: Deadline | None,
        tenant: str | None,
        started: float,
    ) -> None:
        try:
            entry, payload = self._exchange(
                "/v1/submit", [(expression, operands)], deadline, tenant
            )
            output = decode_result_entry(entry, payload)
            self._deliver(future, expression, output, entry, started)
        except BaseException as error:  # noqa: BLE001 — delivered, never raised here
            self._deliver_error(future, expression, error, started)

    def _run_batch(
        self,
        futures: list[Future],
        requests: list[tuple[str, Mapping[str, Any]]],
        deadline: Deadline | None,
        tenant: str | None,
        started: float,
    ) -> None:
        try:
            parsed, payload = self._exchange(
                "/v1/submit_many", requests, deadline, tenant
            )
            results = parsed.get("results")
            if not isinstance(results, list) or len(results) != len(futures):
                raise GatewayError(
                    f"batch response carries {len(results) if isinstance(results, list) else 'no'} "
                    f"results for {len(futures)} requests"
                )
            for future, (expression, _), entry in zip(futures, requests, results):
                if "error" in entry:
                    error = decode_error(entry)
                    self._deliver_error(future, expression, error, started)
                else:
                    output = decode_result_entry(entry, payload)
                    self._deliver(future, expression, output, entry, started)
        except BaseException as error:  # noqa: BLE001 — fail the whole batch
            for future, (expression, _) in zip(futures, requests):
                self._deliver_error(future, expression, error, started)

    def _exchange(
        self,
        path: str,
        requests: list[tuple[str, Mapping[str, Any]]],
        deadline: Deadline | None,
        tenant: str | None,
    ) -> tuple[dict[str, Any], memoryview | None]:
        """One submit exchange with retry; returns the parsed response."""
        attempt = 1
        prev_delay: float | None = None
        while True:
            if deadline is not None and deadline.expired():
                raise deadline_error(-1, "client")
            try:
                return self._request_once(path, requests, deadline, tenant)
            except ReproError as error:
                if not self._retry.should_retry(attempt, error):
                    raise
                delay = self._retry.delay(attempt, error, prev_delay)
                if deadline is not None and deadline.remaining_s() <= delay:
                    raise deadline_error(-1, "client") from error
                time.sleep(delay)
                prev_delay = delay
                attempt += 1

    def _request_once(
        self,
        path: str,
        requests: list[tuple[str, Mapping[str, Any]]],
        deadline: Deadline | None,
        tenant: str | None,
    ) -> tuple[dict[str, Any], memoryview | None]:
        last_error: BaseException | None = None
        for fresh in (False, True):
            conn, encoder = self._connection(reset=fresh)
            try:
                if len(requests) == 1 and path == "/v1/submit":
                    expression, operands = requests[0]
                    content_type, body = encoder.encode_request(
                        expression, operands, binary=self.binary
                    )
                else:
                    content_type, body = encoder.encode_batch(requests, binary=self.binary)
            except WireFormatError:
                # An operand outside the domain: the encoder's mirror has
                # advanced for a body that is never sent, so start over.
                self._drop_connection()
                raise
            headers = {"Content-Type": content_type}
            key = self._tenant_keys.get(tenant or "", self._api_key)
            if key is not None:
                headers[API_KEY_HEADER] = key
            if deadline is not None:
                headers[DEADLINE_HEADER] = f"{deadline.remaining_s() * 1e3:.3f}"
            if obs_trace.enabled():
                headers[TRACE_HEADER] = obs_trace.new_trace_id()
            try:
                conn.request("POST", path, body=body, headers=headers)
                response = conn.getresponse()
                data = response.read()
            except (OSError, http.client.HTTPException) as error:
                # The connection (and the server's decoder caches) died;
                # drop our half of the mirror and re-ship everything on
                # a cold pair.
                self._drop_connection()
                last_error = error
                continue
            if response.getheader("Connection", "").lower() == "close":
                self._drop_connection()
            return self._parse_response(response, data)
        raise GatewayError(
            f"gateway at {self._host}:{self._port} is unreachable: {last_error!r}"
        ) from last_error

    def _parse_response(
        self, response: http.client.HTTPResponse, data: bytes
    ) -> tuple[dict[str, Any], memoryview | None]:
        content_type = response.getheader("Content-Type", "application/json")
        if response.status == 200:
            return decode_result_body(content_type, data)
        try:
            body = json.loads(data.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            raise GatewayError(
                f"gateway returned HTTP {response.status} with a non-JSON body"
            ) from None
        raise decode_error(body)

    # -- delivery ------------------------------------------------------------
    def _deliver(
        self,
        future: Future,
        expression: str,
        output: np.ndarray,
        entry: Mapping[str, Any],
        started: float,
    ) -> None:
        trace = None
        exported = entry.get("trace")
        if isinstance(exported, Mapping) and "trace_id" in exported:
            trace = obs_trace.Trace(str(exported["trace_id"]))
            trace.merge(exported)
        future._deliver(
            InsumResult(
                request_id=-1,
                expression=expression,
                output=np.array(output, copy=True),
                latency_ms=(time.perf_counter() - started) * 1e3,
                trace=trace,
            )
        )

    def _deliver_error(
        self, future: Future, expression: str, error: BaseException, started: float
    ) -> None:
        future._deliver(
            InsumResult(
                request_id=-1,
                expression=expression,
                error=error,
                latency_ms=(time.perf_counter() - started) * 1e3,
            )
        )

    # -- connection management -----------------------------------------------
    def _connection(self, reset: bool = False) -> tuple[http.client.HTTPConnection, WireEncoder]:
        conn = getattr(self._local, "conn", None)
        if reset and conn is not None:
            self._drop_connection()
            conn = None
        if conn is None:
            conn = http.client.HTTPConnection(self._host, self._port, timeout=self._timeout)
            self._local.conn = conn
            self._local.encoder = WireEncoder()
            with self._conns_lock:
                self._conns.append(conn)
        return self._local.conn, self._local.encoder

    def _drop_connection(self) -> None:
        conn = getattr(self._local, "conn", None)
        self._local.conn = None
        self._local.encoder = None
        if conn is None:
            return
        with self._conns_lock:
            if conn in self._conns:
                self._conns.remove(conn)
        try:
            conn.close()
        except Exception:  # noqa: BLE001 — already dead is fine
            pass

    def _simple_request(self, method: str, path: str) -> tuple[int, str, bytes]:
        conn = http.client.HTTPConnection(self._host, self._port, timeout=self._timeout)
        try:
            conn.request(method, path)
            response = conn.getresponse()
            return response.status, response.getheader("Content-Type", ""), response.read()
        except (OSError, http.client.HTTPException) as error:
            raise GatewayError(
                f"gateway at {self._host}:{self._port} is unreachable: {error!r}"
            ) from error
        finally:
            conn.close()
