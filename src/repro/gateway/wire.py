"""The gateway wire format: two framings of the operand codec, and the error contract.

Both request encodings of the ``/v1`` surface carry an operand the way
:mod:`repro.cluster.codec` defines it — a dense array as itself, a
sparse operand as its *record* (format name plus every constructor
argument, each array a dense array of its own), rebuilt by the format's
validating constructor:

* **JSON** (``application/json``) — the slow, universal path: every
  operand is a JSON *spec* (``{"kind": "dense" | "sparse" | "scalar",
  ...}``), arrays as flat value lists.  No caching, no state.
* **Binary** (``application/x-repro-binary``) — a ``RGW1`` frame: a
  JSON header (expression + per-operand codec descriptors) followed by
  one raw payload blob.  The framing supplies only where raw bytes go
  (appended to the payload; reads are bounds-checked) and how small
  values ride (``["inline", <JSON spec>]``); which array is shipped,
  stored or referenced, and every check on a received descriptor, is the
  codec's.  :class:`WireEncoder` / :class:`WireDecoder` are the halves
  of its cache mirror for one connection, so the server holds *one live
  instance* per sparse operand per connection.

Pickle never crosses the wire — nothing reachable from
:meth:`WireDecoder.decode_request` unpickles — so a gateway port can
face untrusted clients: whatever bytes arrive, the outcome is a decoded
request or a :mod:`repro.errors` exception mapped to 400.

The module also owns the error contract: :func:`http_status` and
:func:`encode_error` map the :class:`~repro.errors.ServeError` taxonomy
onto stable HTTP codes and machine-readable JSON bodies, and
:func:`decode_error` rebuilds the *same* exception types client-side.
Both ends read an HTTP head with the one :func:`parse_head`.
"""

from __future__ import annotations

import inspect
import json
import struct
from typing import Any, Mapping

import numpy as np

from repro import errors as _errors
from repro.cluster.codec import (
    MirrorDecoder,
    MirrorEncoder,
    apply_all,
    decode_dense,
    encode_dense,
    operand_kind,
    parse_dtype,
    sparse_from_record,
    sparse_record,
)
from repro.errors import (
    ClusterBusyError,
    ControlThreadError,
    DeadlineExceededError,
    EinsumError,
    FormatError,
    FutureCancelledError,
    GatewayAuthError,
    GatewayError,
    PoisonedRequestError,
    ReproError,
    SessionClosedError,
    TenantQuotaError,
    WireFormatError,
    WorkerCrashedError,
)

__all__ = [
    "API_KEY_HEADER",
    "BINARY_CONTENT_TYPE",
    "DEADLINE_HEADER",
    "JSON_CONTENT_TYPE",
    "TRACE_HEADER",
    "WIRE_MAGIC",
    "WireDecoder",
    "WireEncoder",
    "api_index",
    "decode_error",
    "encode_error",
    "http_status",
    "parse_head",
]

#: Magic prefix of a binary wire frame (version 1).
WIRE_MAGIC = b"RGW1"

#: Content type of the binary operand encoding.
BINARY_CONTENT_TYPE = "application/x-repro-binary"

#: Content type of the JSON operand encoding.
JSON_CONTENT_TYPE = "application/json"

#: Request header carrying the remaining deadline budget (milliseconds).
DEADLINE_HEADER = "X-Repro-Deadline-Ms"

#: Request/response header carrying the propagated trace id.
TRACE_HEADER = "X-Repro-Trace-Id"

#: Request header carrying the tenant's API key.
API_KEY_HEADER = "X-Repro-Api-Key"

_LEN = struct.Struct("<I")


# -- Framing -------------------------------------------------------------------
def pack_frame(header: Mapping[str, Any], payload: bytes | bytearray = b"") -> bytes:
    """Assemble one binary frame: magic, header length, header JSON, payload."""
    encoded = json.dumps(header, separators=(",", ":")).encode("utf-8")
    return WIRE_MAGIC + _LEN.pack(len(encoded)) + encoded + bytes(payload)


def unpack_frame(body: bytes) -> tuple[dict[str, Any], memoryview]:
    """Split one binary frame into (header dict, payload memoryview); a wrong
    magic, a truncated header or a header that is no JSON object is rejected."""
    view = memoryview(body)
    if len(view) < len(WIRE_MAGIC) + _LEN.size or bytes(view[:4]) != WIRE_MAGIC:
        raise WireFormatError("not a RGW1 binary frame")
    (header_len,) = _LEN.unpack_from(view, len(WIRE_MAGIC))
    start = len(WIRE_MAGIC) + _LEN.size
    if len(view) < start + header_len:
        raise WireFormatError("binary frame truncated inside its header")
    header = _parse_json(bytes(view[start : start + header_len]), "binary frame header")
    return header, view[start + header_len :]


def _parse_json(body: bytes, what: str) -> dict[str, Any]:
    try:
        parsed = json.loads(body.decode("utf-8"))
    except (ValueError, RecursionError) as error:  # bad UTF-8, bad JSON, nesting too deep
        raise WireFormatError(f"{what} is not JSON: {error}") from None
    if not isinstance(parsed, dict):
        raise WireFormatError(f"{what} must be a JSON object")
    return parsed


def _is_binary(content_type: str) -> bool:
    kind = content_type.split(";", 1)[0].strip().lower()
    if kind in (JSON_CONTENT_TYPE, ""):
        return False
    if kind != BINARY_CONTENT_TYPE:
        raise WireFormatError(f"unsupported content type {content_type!r}")
    return True


#: Fields one HTTP head may carry, and bytes it may take, on either end.
MAX_HEADER_LINES = 100
MAX_HEAD_BYTES = 1 << 16


def parse_head(head: bytes, max_fields: int) -> tuple[list[str], dict[str, str]] | None:
    """Split one CRLF-framed HTTP head into its start-line words and its fields,
    names lower-cased; ``None`` when it carries more than ``max_fields`` fields."""
    lines = head.decode("latin1").strip().split("\r\n")
    if len(lines) > max_fields + 1:
        return None
    fields = (line.partition(":") for line in lines[1:])
    return lines[0].split(), {name.strip().lower(): value.strip() for name, _, value in fields}


# -- JSON operand specs: a JSON body's operands, an RGW1 frame's inline values ---
def _dense_spec(array: np.ndarray) -> dict[str, Any]:
    operand_kind(array)
    flat = np.ascontiguousarray(array)
    if flat.dtype.kind == "c":  # JSON has no complex numbers: (re, im) pairs
        flat = flat.view(flat.real.dtype)
    return {
        "kind": "dense",
        "dtype": array.dtype.str,
        "shape": list(array.shape),
        "data": flat.ravel().tolist(),
    }


def _dense_from_spec(spec: Mapping[str, Any]) -> np.ndarray:
    try:
        dtype = parse_dtype(spec["dtype"])
        real = np.empty(0, dtype).real.dtype
        return np.asarray(spec["data"], dtype=real).view(dtype).reshape(spec["shape"])
    except (KeyError, TypeError, ValueError, OverflowError) as error:
        raise WireFormatError(f"bad dense operand spec: {error}") from None


def _encode_spec(value: Any) -> dict[str, Any]:
    kind = operand_kind(value)
    if kind == "sparse":
        return dict(sparse_record(value, _dense_spec), kind=kind)
    if kind == "dense":
        return _dense_spec(value)
    return {"kind": kind, "value": value.item() if isinstance(value, np.generic) else value}


def _decode_spec(spec: Any) -> Any:
    kind = spec.get("kind") if isinstance(spec, dict) else None
    if kind == "scalar":
        value = spec.get("value")
        if value is not None and not isinstance(value, (bool, int, float, str)):
            raise WireFormatError(f"a scalar operand is a JSON scalar, got {value!r}")
        return value
    if kind == "dense":
        return _dense_from_spec(spec)
    if kind == "sparse":
        record = {key: value for key, value in spec.items() if key != "kind"}
        return sparse_from_record(record, _decode_spec)
    raise WireFormatError(f"an operand spec is an object of a known 'kind', got {spec!r}")


class _Frame:
    """The RGW1 framing of the codec: raw bytes in one payload, inline = JSON spec."""

    max_payload = float("inf")

    def __init__(self, payload: bytearray | memoryview):
        self.payload = payload

    def put(self, view: np.ndarray) -> int:
        offset = len(self.payload)
        self.payload += memoryview(view).cast("B")
        return offset

    def get(self, offset: int, nbytes: int) -> memoryview:
        if offset + nbytes > len(self.payload):
            raise WireFormatError("blob descriptor reaches outside the payload")
        return self.payload[offset : offset + nbytes]

    inline = staticmethod(_encode_spec)
    outline = staticmethod(_decode_spec)


def _finish(body: Mapping[str, Any], frame: _Frame | None) -> tuple[str, bytes]:
    if frame is None:
        return JSON_CONTENT_TYPE, json.dumps(body).encode("utf-8")
    return BINARY_CONTENT_TYPE, pack_frame(body, frame.payload)


# -- Requests (per-connection state on both sides in the binary encoding) ------
class WireEncoder(MirrorEncoder):
    """Client-side operand encoder for one gateway connection.

    The transmit half of the codec's cache mirror over the RGW1 frame.
    One encoder per *connection*, discarded with it — the server's
    decoder caches die with the connection, so an encoder that outlived
    it would reference entries the server no longer holds.  Both halves
    bound their caches by the codec's ``ARRAY_CACHE_SIZE`` /
    ``PATTERN_CACHE_SIZE``, so the mirror cannot be sized apart.
    """

    def encode_request(
        self, expression: str, operands: Mapping[str, Any], binary: bool = True
    ) -> tuple[str, bytes]:
        """Encode one submit body; returns ``(content_type, body_bytes)``.

        Parameters
        ----------
        expression:
            The Einsum expression string.
        operands:
            Operand values by name (arrays, sparse formats, scalars).
        binary:
            True for the ``RGW1`` binary frame (cache-aware), False for
            the stateless JSON encoding.
        """
        frame = _Frame(bytearray()) if binary else None
        return _finish(self._entry(expression, operands, frame), frame)

    def encode_batch(
        self, requests: list[tuple[str, Mapping[str, Any]]], binary: bool = True
    ) -> tuple[str, bytes]:
        """Encode a submit_many body of ``(expression, operands)`` pairs, as
        :meth:`encode_request` does one; a binary batch shares one payload."""
        frame = _Frame(bytearray()) if binary else None
        entries = [self._entry(expression, operands, frame) for expression, operands in requests]
        return _finish({"requests": entries}, frame)

    def _entry(
        self, expression: str, operands: Mapping[str, Any], frame: _Frame | None
    ) -> dict[str, Any]:
        return {
            "expression": expression,
            "operands": {
                name: _encode_spec(value) if frame is None else self.encode(value, frame)
                for name, value in operands.items()
            },
        }


class WireDecoder(MirrorDecoder):
    """Server-side operand decoder for one gateway connection.

    The receive half of the codec's cache mirror: a sparse operand is
    rebuilt from its arrays by the format's validating constructor — no
    pickle, no dense projection — and cached as *one live instance per
    key*, which keeps the engine's identity-fingerprint caches (and the
    cluster's affinity keys) stable across requests on the connection.
    """

    def decode_request(
        self, content_type: str, body: bytes
    ) -> list[tuple[str, dict[str, Any]]]:
        """Decode one request body into ``(expression, operands)`` pairs.

        A single-submit body decodes to a one-element list, a batch body
        to one element per request, in order.  Every descriptor's cache
        effects are applied before the first failure is re-raised
        (:func:`~repro.cluster.codec.apply_all`).

        Parameters
        ----------
        content_type:
            The request's ``Content-Type`` header value.
        body:
            The raw request body.
        """
        if _is_binary(content_type):
            header, payload = unpack_frame(body)
            frame: _Frame | None = _Frame(payload)
        else:
            header, frame = _parse_json(body, "request body"), None
        entries = header["requests"] if "requests" in header else [header]
        if not isinstance(entries, list) or not entries:
            raise WireFormatError("'requests' must be a non-empty list")
        return apply_all(self._decode_entry, entries, frame)

    def _decode_entry(self, entry: Any, frame: _Frame | None) -> tuple[str, dict[str, Any]]:
        if not isinstance(entry, dict) or not isinstance(entry.get("expression"), str):
            raise WireFormatError("each request needs an 'expression' string")
        operands = entry.get("operands", {})
        if not isinstance(operands, dict):
            raise WireFormatError("'operands' must be an object")
        if frame is None:
            values = apply_all(_decode_spec, operands.values())
        else:
            values = apply_all(self.decode, operands.values(), frame)
        return entry["expression"], dict(zip(operands, values))


# -- Results -------------------------------------------------------------------
def encode_result(meta: Mapping[str, Any], output: np.ndarray, binary: bool) -> tuple[str, bytes]:
    """Encode one successful result as ``(content_type, body)``: the JSON-safe
    fields of ``meta`` (``latency_ms``, ``trace``...) plus the ``result``
    array, in the RGW1 frame (raw bytes) if ``binary``, else in JSON."""
    frame = _Frame(bytearray()) if binary else None
    return _finish(_result_entry(meta, output, frame), frame)


def encode_batch_results(items: list[dict[str, Any]], binary: bool) -> tuple[str, bytes]:
    """Encode a submit_many response as ``(content_type, body)``: one item per
    request, in order, ``{"output": array, ...}`` or ``{"error": <exception>,
    "status": int}``; a binary response shares one payload blob."""
    frame = _Frame(bytearray()) if binary else None
    encoded = [
        dict(encode_error(item["error"]), status=item.get("status"))
        if "error" in item
        else _result_entry(item, item["output"], frame)
        for item in items
    ]
    return _finish({"results": encoded}, frame)


def _result_entry(meta: Mapping[str, Any], output: Any, frame: _Frame | None) -> dict[str, Any]:
    entry = {key: value for key, value in meta.items() if key != "output"}
    output = np.asarray(output)
    entry["result"] = _dense_spec(output) if frame is None else encode_dense(output, frame)
    return entry


def decode_result_body(content_type: str, body: bytes) -> tuple[dict[str, Any], memoryview | None]:
    """Parse a response body into ``(object, payload-or-None)``: the JSON body,
    or a binary response's frame header with the payload alongside;
    :func:`decode_result_entry` materialises the arrays out of it."""
    if _is_binary(content_type):
        return unpack_frame(body)
    return _parse_json(body, "response body"), None


def decode_result_entry(entry: Mapping[str, Any], payload: memoryview | None) -> np.ndarray:
    """Materialise the array of a response entry's ``result`` field: a JSON
    dense spec, or (binary responses) a codec descriptor into ``payload``."""
    result = entry.get("result")
    output = _decode_spec(result) if payload is None else decode_dense(result, _Frame(payload))
    if not isinstance(output, np.ndarray):
        raise WireFormatError(f"response entry carries no result array: {result!r}")
    return output


# -- Error contract ------------------------------------------------------------
def http_status(error: BaseException) -> int:
    """The stable HTTP status code for one repro exception.

    The full table lives in ``docs/GATEWAY.md``; highlights: admission
    rejections (:class:`~repro.errors.ClusterBusyError` and its tenant
    subclass) are 429, expired deadlines 504, auth failures 401/403,
    wire/expression/format errors 400, infrastructure failures 503.
    """
    if isinstance(error, GatewayAuthError):
        return error.status
    if isinstance(error, ClusterBusyError):
        return 429
    if isinstance(error, DeadlineExceededError):
        return 504
    if isinstance(error, FutureCancelledError):
        return 409
    if isinstance(error, PoisonedRequestError):
        return 422
    if isinstance(error, (WorkerCrashedError, ControlThreadError, SessionClosedError)):
        return 503
    if isinstance(error, (WireFormatError, EinsumError, FormatError)):
        return 400
    if isinstance(error, ReproError):
        return 422
    return 500


def encode_error(error: BaseException) -> dict[str, Any]:
    """The machine-readable JSON error body for one exception.

    Always ``{"error": {"type": ..., "message": ...}}``; admission
    rejections add ``retry_after`` / ``inflight`` / ``limit`` (and
    ``tenant`` for quota rejections), auth failures add ``status`` —
    everything :func:`decode_error` needs to rebuild the same exception.
    """
    info: dict[str, Any] = {"type": type(error).__name__, "message": str(error)}
    if isinstance(error, ClusterBusyError):
        info["retry_after"] = error.retry_after
        info["inflight"] = error.inflight
        info["limit"] = error.limit
    if isinstance(error, TenantQuotaError):
        info["tenant"] = error.tenant
    if isinstance(error, GatewayAuthError):
        info["status"] = error.status
    return {"error": info}


def decode_error(body: Mapping[str, Any]) -> BaseException:
    """Rebuild the repro exception an error body describes.

    The inverse of :func:`encode_error`: known types from
    :mod:`repro.errors` come back as *themselves* (so one taxonomy holds
    on both sides of the wire), anything unrecognised degrades to a
    :class:`~repro.errors.GatewayError` carrying the original type name.
    """
    info = body.get("error", body)
    if not isinstance(info, Mapping):
        return GatewayError(f"malformed error body: {body!r}")
    name = str(info.get("type", "GatewayError"))
    message = str(info.get("message", ""))
    if name == "TenantQuotaError":
        return TenantQuotaError(
            str(info.get("tenant", "?")),
            int(info.get("inflight", 0)),
            int(info.get("limit", 0)),
            float(info.get("retry_after", 0.0)),
        )
    if name == "ClusterBusyError":
        return ClusterBusyError(
            int(info.get("inflight", 0)),
            int(info.get("limit", 0)),
            float(info.get("retry_after", 0.0)),
        )
    if name == "GatewayAuthError":
        return GatewayAuthError(message, status=int(info.get("status", 401)))
    candidate = getattr(_errors, name, None)
    if inspect.isclass(candidate) and issubclass(candidate, ReproError):
        try:
            return candidate(message)
        except TypeError:
            pass
    return GatewayError(f"{name}: {message}")


# -- Discovery -----------------------------------------------------------------
def api_index() -> dict[str, Any]:
    """The ``GET /v1`` body: a machine-readable index of the gateway's routes.

    The data plane (``/v1/submit*``) and the ops routes (``/metrics``,
    ``/v1/statsz``, ``/v1/healthz``) are listed together, because one
    server serves them all.
    """
    return {
        "service": "repro-gateway",
        "api_version": "v1",
        "endpoints": {
            "GET /v1": "this index",
            "GET /v1/healthz": "session liveness (200 healthy / 503 degraded)",
            "GET /v1/statsz": "the session's ServeStats window (API key as for submit)",
            "GET /metrics": "Prometheus text of the process registry (API key as for submit)",
            "POST /v1/submit": "execute one expression; body is one request",
            "POST /v1/submit_many": "execute a batch; body carries 'requests'",
        },
        "content_types": [JSON_CONTENT_TYPE, BINARY_CONTENT_TYPE],
        "headers": {
            API_KEY_HEADER: "tenant API key (when the gateway has a keyring)",
            DEADLINE_HEADER: "remaining deadline budget in milliseconds",
            TRACE_HEADER: "trace id to propagate (echoed on the response)",
        },
        "errors": "JSON bodies: {'error': {'type': ..., 'message': ...}}",
    }
