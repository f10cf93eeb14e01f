"""The gateway wire format: operand codec, framing, and error mapping.

Two request encodings share one ``/v1`` surface:

* **JSON** (``application/json``) — the slow, universal path: dense
  arrays as flat value lists, sparse operands as their dense projection
  plus a format spec, scalars verbatim.  No caching, no state.
* **Binary** (``application/x-repro-binary``) — a ``RGW1`` frame: a
  JSON header (expression + per-operand descriptors) followed by one
  raw payload blob.  The descriptors reuse the cluster codec's scheme
  (:mod:`repro.cluster.codec`) over HTTP: dense arrays ride as raw
  bytes (``["blob", offset, nbytes, dtype, shape]``), arrays whose
  identity token repeats are stored once (``"blob_store"``) and then
  referenced by token (``["cached", token]``) with a crc32 content
  checksum guarding against in-place mutation, and sparse patterns ship
  once per :func:`repro.cluster.codec.pattern_key` (``"pattern_store"``
  — the dense projection plus a format spec, rebuilt server-side) and
  are thereafter referenced by key (``["pattern", key]``).

Both sides of one connection run the same LRU bookkeeping over the same
descriptor stream — exactly the parent/worker mirror discipline of the
ring codec — so the server holds *one live instance* per pattern per
connection and the engine's identity-fingerprint caches (and therefore
the cluster's coalescing keys) stay hot across HTTP requests.  Pickle
never crosses the wire: patterns are reconstructed from their dense
projection via ``from_dense``, so a gateway port can face untrusted
clients.

The module also owns the two halves of the error contract:
:func:`http_status`/:func:`encode_error` map the
:class:`~repro.errors.ServeError` taxonomy onto stable HTTP codes and
machine-readable JSON bodies, and :func:`decode_error` rebuilds the
*same* exception types client-side.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import struct
from collections import OrderedDict
from typing import Any, Mapping

import numpy as np

from repro import errors as _errors
from repro.cluster import codec  # cache bounds are read from it at use time, as the ring codec does
from repro.cluster.codec import content_checksum, pattern_key, transport_payload
from repro.engine.fingerprint import array_token
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
from repro.formats.base import SparseFormat
from repro.formats.bcsr import BCSR
from repro.formats.blockcoo import BlockCOO
from repro.formats.blockgroupcoo import BlockGroupCOO
from repro.formats.coo import COO
from repro.formats.csr import CSR
from repro.formats.ell import ELL
from repro.formats.groupcoo import GroupCOO

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


# ---------------------------------------------------------------------------
# Framing
# ---------------------------------------------------------------------------
def pack_frame(header: Mapping[str, Any], payload: bytes | bytearray = b"") -> bytes:
    """Assemble one binary frame: magic, header length, header JSON, payload."""
    encoded = json.dumps(header, separators=(",", ":")).encode("utf-8")
    return WIRE_MAGIC + _LEN.pack(len(encoded)) + encoded + bytes(payload)


def unpack_frame(body: bytes) -> tuple[dict[str, Any], memoryview]:
    """Split one binary frame into (header dict, payload memoryview).

    Raises :class:`~repro.errors.WireFormatError` on a wrong magic, a
    truncated header, or header JSON that does not parse.
    """
    view = memoryview(body)
    if len(view) < len(WIRE_MAGIC) + _LEN.size or bytes(view[:4]) != WIRE_MAGIC:
        raise WireFormatError("not a RGW1 binary frame")
    (header_len,) = _LEN.unpack_from(view, len(WIRE_MAGIC))
    start = len(WIRE_MAGIC) + _LEN.size
    if len(view) < start + header_len:
        raise WireFormatError("binary frame truncated inside its header")
    try:
        header = json.loads(bytes(view[start : start + header_len]).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise WireFormatError(f"binary frame header is not JSON: {error}") from None
    if not isinstance(header, dict):
        raise WireFormatError("binary frame header must be a JSON object")
    return header, view[start + header_len :]


# ---------------------------------------------------------------------------
# JSON operand specs (shared by both encodings for inline values)
# ---------------------------------------------------------------------------
def _dense_spec(array: np.ndarray) -> dict[str, Any]:
    array = np.ascontiguousarray(array)
    if array.dtype.hasobject:
        raise WireFormatError("object-dtype arrays cannot cross the gateway wire")
    return {
        "kind": "dense",
        "dtype": array.dtype.str,
        "shape": list(array.shape),
        "data": array.ravel().tolist(),
    }


def _format_spec(fmt: SparseFormat) -> dict[str, Any]:
    """The constructor spec a server needs to rebuild ``fmt`` from dense."""
    name = type(fmt).__name__.lower()
    spec: dict[str, Any] = {"format": name}
    block_shape = getattr(fmt, "block_shape", None)
    if block_shape is not None:
        spec["block_shape"] = [int(side) for side in block_shape]
    if name == "groupcoo":
        spec["group_size"] = int(fmt.columns.shape[1])
    elif name == "blockgroupcoo":
        spec["group_size"] = int(fmt.group_size)
    return spec


def _sparse_spec(fmt: SparseFormat) -> dict[str, Any]:
    spec = _format_spec(fmt)
    spec.update(_dense_spec(fmt.to_dense()))
    spec["kind"] = "sparse"
    return spec


def _build_format(dense: np.ndarray, spec: Mapping[str, Any]) -> SparseFormat:
    """Rebuild a sparse operand from its dense projection and format spec."""
    name = str(spec.get("format", "coo")).lower()
    if name == "coo":
        return COO.from_dense(dense)
    if name == "csr":
        return CSR.from_dense(dense)
    if name == "ell":
        return ELL.from_dense(dense)
    if name == "groupcoo":
        group_size = spec.get("group_size")
        return GroupCOO.from_dense(dense, group_size=group_size)
    if name == "blockcoo":
        return BlockCOO.from_dense(dense, block_shape=tuple(spec.get("block_shape", (8, 8))))
    if name == "bcsr":
        return BCSR.from_dense(dense, block_shape=tuple(spec.get("block_shape", (8, 8))))
    if name == "blockgroupcoo":
        return BlockGroupCOO.from_dense(
            dense,
            block_shape=tuple(spec.get("block_shape", (8, 8))),
            group_size=spec.get("group_size"),
        )
    raise WireFormatError(f"unknown sparse format {name!r} in operand spec")


def _decode_json_operand(spec: Any) -> Any:
    if not isinstance(spec, Mapping) or "kind" not in spec:
        raise WireFormatError(f"operand spec must be an object with 'kind', got {spec!r}")
    kind = spec["kind"]
    if kind == "scalar":
        return spec.get("value")
    if kind == "dense":
        return _dense_from_spec(spec)
    if kind == "sparse":
        return _build_format(_dense_from_spec(spec), spec)
    raise WireFormatError(f"unknown operand kind {kind!r}")


def _dense_from_spec(spec: Mapping[str, Any]) -> np.ndarray:
    try:
        dtype = np.dtype(spec["dtype"])
        shape = tuple(int(dim) for dim in spec["shape"])
        array = np.asarray(spec["data"], dtype=dtype).reshape(shape)
    except (KeyError, TypeError, ValueError) as error:
        raise WireFormatError(f"bad dense operand spec: {error}") from None
    return array


def _encode_json_operand(value: Any) -> Any:
    if isinstance(value, SparseFormat):
        return _sparse_spec(value)
    if isinstance(value, np.ndarray):
        return _dense_spec(value)
    if isinstance(value, (bool, int, float, str)) or value is None:
        return {"kind": "scalar", "value": value}
    if isinstance(value, (np.bool_, np.integer, np.floating)):
        return {"kind": "scalar", "value": value.item()}
    raise WireFormatError(
        f"operand of type {type(value).__name__} cannot cross the gateway wire"
    )


# ---------------------------------------------------------------------------
# Binary operand codec (per-connection state on both sides)
# ---------------------------------------------------------------------------
def _pattern_wire_key(fmt: SparseFormat) -> str:
    """A JSON-safe digest of :func:`repro.cluster.codec.pattern_key`.

    Identity tokens are process-local, so the digest is only meaningful
    within one connection — which is exactly the cache scope.
    """
    return hashlib.sha1(repr(pattern_key(fmt)).encode("utf-8")).hexdigest()


class WireEncoder:
    """Client-side binary operand encoder for one gateway connection.

    The transmit half of the per-connection cache mirror: identical LRU
    bookkeeping to the cluster codec's
    :class:`~repro.cluster.codec.OperandEncoder`, applied to the HTTP
    frame instead of the shared-memory ring.  One encoder per
    *connection*, discarded with it — the server's decoder caches die
    with the connection, so an encoder that outlived its connection
    would reference entries the server no longer holds.  Both halves
    bound their caches by the cluster codec's ``ARRAY_CACHE_SIZE`` /
    ``PATTERN_CACHE_SIZE``, so the mirror cannot be sized apart.
    """

    def __init__(self):
        self._patterns_sent: OrderedDict[str, None] = OrderedDict()
        self._cached_tokens: OrderedDict[int, int] = OrderedDict()
        self._seen_tokens: OrderedDict[int, None] = OrderedDict()

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
        if not binary:
            body = {
                "expression": expression,
                "operands": {
                    name: _encode_json_operand(value) for name, value in operands.items()
                },
            }
            return JSON_CONTENT_TYPE, json.dumps(body).encode("utf-8")
        payload = bytearray()
        entry = self._encode_entry(expression, operands, payload)
        return BINARY_CONTENT_TYPE, pack_frame(entry, payload)

    def encode_batch(
        self, requests: list[tuple[str, Mapping[str, Any]]], binary: bool = True
    ) -> tuple[str, bytes]:
        """Encode a submit_many body; returns ``(content_type, body_bytes)``.

        Parameters
        ----------
        requests:
            ``(expression, operands)`` pairs, in submission order.
        binary:
            As for :meth:`encode_request`; binary batches share one
            payload blob across all requests.
        """
        if not binary:
            body = {
                "requests": [
                    {
                        "expression": expression,
                        "operands": {
                            name: _encode_json_operand(value)
                            for name, value in operands.items()
                        },
                    }
                    for expression, operands in requests
                ]
            }
            return JSON_CONTENT_TYPE, json.dumps(body).encode("utf-8")
        payload = bytearray()
        entries = [
            self._encode_entry(expression, operands, payload)
            for expression, operands in requests
        ]
        return BINARY_CONTENT_TYPE, pack_frame({"requests": entries}, payload)

    # -- internals ----------------------------------------------------------
    def _encode_entry(
        self, expression: str, operands: Mapping[str, Any], payload: bytearray
    ) -> dict[str, Any]:
        return {
            "expression": expression,
            "operands": {
                name: self._encode_operand(value, payload)
                for name, value in operands.items()
            },
        }

    def _encode_operand(self, value: Any, payload: bytearray) -> list:
        if isinstance(value, SparseFormat):
            return self._encode_pattern(value, payload)
        if isinstance(value, np.ndarray):
            return self._encode_array(value, payload)
        return ["json", _encode_json_operand(value)]

    def _append_blob(self, view: np.ndarray, payload: bytearray) -> list:
        offset = len(payload)
        payload += memoryview(view).cast("B")
        return ["blob", offset, view.nbytes, view.dtype.str, list(view.shape)]

    def _encode_array(self, array: np.ndarray, payload: bytearray) -> list:
        view = transport_payload(array)
        if view is None:
            return ["json", _encode_json_operand(array)]
        token = array_token(array)
        # Same two-tier stability protocol as the ring codec: no checksum
        # on first sighting, checksum-gated cache hits from the second on
        # (an in-place refill re-ships and refreshes the server's entry).
        stable = token in self._cached_tokens or token in self._seen_tokens
        checksum = content_checksum(view) if stable else None
        if checksum is not None and self._cached_tokens.get(token) == checksum:
            self._cached_tokens.move_to_end(token)
            return ["cached", token]
        self._seen_tokens[token] = None
        self._seen_tokens.move_to_end(token)
        while len(self._seen_tokens) > 4 * codec.ARRAY_CACHE_SIZE:
            self._seen_tokens.popitem(last=False)
        descriptor = self._append_blob(view, payload)
        if stable:
            descriptor = ["blob_store", *descriptor[1:], token]
            self._cached_tokens[token] = checksum
            while len(self._cached_tokens) > codec.ARRAY_CACHE_SIZE:
                self._cached_tokens.popitem(last=False)
        return descriptor

    def _encode_pattern(self, fmt: SparseFormat, payload: bytearray) -> list:
        key = _pattern_wire_key(fmt)
        if key in self._patterns_sent:
            self._patterns_sent.move_to_end(key)
            return ["pattern", key]
        dense = np.ascontiguousarray(fmt.to_dense())
        if dense.dtype.hasobject:
            raise WireFormatError("object-dtype patterns cannot cross the gateway wire")
        self._patterns_sent[key] = None
        while len(self._patterns_sent) > codec.PATTERN_CACHE_SIZE:
            self._patterns_sent.popitem(last=False)
        return ["pattern_store", key, _format_spec(fmt), self._append_blob(dense, payload)]


class WireDecoder:
    """Server-side operand decoder for one gateway connection.

    The receive half of the per-connection cache mirror (see
    :class:`WireEncoder`): applies each descriptor's cache effects with
    the same LRU bounds the encoder used, so a ``["cached", token]`` or
    ``["pattern", key]`` reference always finds its entry.  Patterns are
    rebuilt from their dense projection with ``from_dense`` — no pickle
    — and cached as *one live instance per key*, which keeps the
    engine's identity-fingerprint caches (and the cluster's coalescing
    keys) stable across requests on the connection.
    """

    def __init__(self):
        self._arrays: OrderedDict[int, np.ndarray] = OrderedDict()
        self._patterns: OrderedDict[str, SparseFormat] = OrderedDict()

    def decode_request(
        self, content_type: str, body: bytes
    ) -> list[tuple[str, dict[str, Any]]]:
        """Decode one request body into ``(expression, operands)`` pairs.

        A single-submit body decodes to a one-element list; a batch body
        to one element per request, in order.  Every descriptor's cache
        effects are applied even when an earlier operand fails — the
        mirror discipline of the ring codec — with the first failure
        re-raised only after the whole body is processed.

        Parameters
        ----------
        content_type:
            The request's ``Content-Type`` header value.
        body:
            The raw request body.
        """
        kind = content_type.split(";", 1)[0].strip().lower()
        if kind == BINARY_CONTENT_TYPE:
            header, payload = unpack_frame(body)
            entries = header["requests"] if "requests" in header else [header]
            return self._decode_entries(entries, payload)
        if kind == JSON_CONTENT_TYPE or not kind:
            try:
                parsed = json.loads(body.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as error:
                raise WireFormatError(f"request body is not JSON: {error}") from None
            if not isinstance(parsed, dict):
                raise WireFormatError("request body must be a JSON object")
            entries = parsed["requests"] if "requests" in parsed else [parsed]
            return self._decode_entries(entries, None)
        raise WireFormatError(f"unsupported content type {content_type!r}")

    # -- internals ----------------------------------------------------------
    def _decode_entries(
        self, entries: Any, payload: memoryview | None
    ) -> list[tuple[str, dict[str, Any]]]:
        if not isinstance(entries, list) or not entries:
            raise WireFormatError("'requests' must be a non-empty list")
        requests: list[tuple[str, dict[str, Any]]] = []
        error: Exception | None = None
        for entry in entries:
            try:
                requests.append(self._decode_entry(entry, payload))
            except Exception as exc:  # noqa: BLE001 — keep applying cache effects
                error = error or exc
        if error is not None:
            raise error
        return requests

    def _decode_entry(
        self, entry: Any, payload: memoryview | None
    ) -> tuple[str, dict[str, Any]]:
        if not isinstance(entry, Mapping) or "expression" not in entry:
            raise WireFormatError("each request needs an 'expression'")
        expression = entry["expression"]
        if not isinstance(expression, str):
            raise WireFormatError("'expression' must be a string")
        raw_operands = entry.get("operands", {})
        if not isinstance(raw_operands, Mapping):
            raise WireFormatError("'operands' must be an object")
        operands: dict[str, Any] = {}
        error: Exception | None = None
        for name, descriptor in raw_operands.items():
            try:
                if payload is None:
                    operands[name] = _decode_json_operand(descriptor)
                else:
                    operands[name] = self._decode_descriptor(name, descriptor, payload)
            except Exception as exc:  # noqa: BLE001 — mirror discipline, see decode_request
                error = error or exc
        if error is not None:
            raise error
        return expression, operands

    def _read_blob(
        self, payload: memoryview, offset: int, nbytes: int, dtype: str, shape: list
    ) -> np.ndarray:
        if offset < 0 or nbytes < 0 or offset + nbytes > len(payload):
            raise WireFormatError("blob descriptor reaches outside the payload")
        try:
            array = np.frombuffer(payload[offset : offset + nbytes], dtype=np.dtype(dtype))
            return array.reshape(tuple(int(dim) for dim in shape))
        except (TypeError, ValueError) as error:
            raise WireFormatError(f"bad blob descriptor: {error}") from None

    def _decode_descriptor(self, name: str, descriptor: Any, payload: memoryview) -> Any:
        if not isinstance(descriptor, list) or not descriptor:
            raise WireFormatError(f"operand {name!r}: descriptor must be a list")
        kind = descriptor[0]
        if kind == "blob":
            return self._read_blob(payload, *descriptor[1:])
        if kind == "blob_store":
            array = self._read_blob(payload, *descriptor[1:5])
            self._arrays[descriptor[5]] = array
            while len(self._arrays) > codec.ARRAY_CACHE_SIZE:
                self._arrays.popitem(last=False)
            return array
        if kind == "cached":
            try:
                self._arrays.move_to_end(descriptor[1])
                return self._arrays[descriptor[1]]
            except KeyError:
                raise WireFormatError(
                    f"operand {name!r} references unknown cached token — "
                    "encoder reused across connections?"
                ) from None
        if kind == "pattern_store":
            _, key, spec, dense_descriptor = descriptor
            dense = self._decode_descriptor(name, dense_descriptor, payload)
            fmt = _build_format(np.array(dense), spec)
            self._patterns[key] = fmt
            while len(self._patterns) > codec.PATTERN_CACHE_SIZE:
                self._patterns.popitem(last=False)
            return fmt
        if kind == "pattern":
            try:
                self._patterns.move_to_end(descriptor[1])
                return self._patterns[descriptor[1]]
            except KeyError:
                raise WireFormatError(
                    f"operand {name!r} references unknown pattern key — "
                    "encoder reused across connections?"
                ) from None
        if kind == "json":
            return _decode_json_operand(descriptor[1])
        raise WireFormatError(f"operand {name!r}: unknown descriptor kind {kind!r}")


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------
def encode_result(meta: Mapping[str, Any], output: np.ndarray, binary: bool) -> tuple[str, bytes]:
    """Encode one successful result body; returns ``(content_type, body)``.

    Parameters
    ----------
    meta:
        JSON-safe response fields (``latency_ms``, ``request_id``,
        ``trace``...) merged into the response header/object.
    output:
        The result array.
    binary:
        Respond in the binary frame (raw result bytes) or in JSON.
    """
    if binary:
        view = np.ascontiguousarray(output)
        payload = bytearray()
        offset = len(payload)
        payload += memoryview(view).cast("B")
        header = dict(meta)
        header["result"] = ["blob", offset, view.nbytes, view.dtype.str, list(view.shape)]
        return BINARY_CONTENT_TYPE, pack_frame(header, payload)
    body = dict(meta)
    body["result"] = _dense_spec(np.asarray(output))
    return JSON_CONTENT_TYPE, json.dumps(body).encode("utf-8")


def encode_batch_results(items: list[dict[str, Any]], binary: bool) -> tuple[str, bytes]:
    """Encode a submit_many response; returns ``(content_type, body)``.

    Parameters
    ----------
    items:
        One dict per request, in order: either ``{"output": array, ...}``
        or ``{"error": <exception>, "status": int}``.
    binary:
        Respond in the binary frame (one shared payload blob) or JSON.
    """
    payload = bytearray()
    encoded: list[dict[str, Any]] = []
    for item in items:
        if "error" in item:
            entry = dict(encode_error(item["error"]), status=item.get("status"))
            encoded.append(entry)
            continue
        entry = {key: value for key, value in item.items() if key != "output"}
        output = np.ascontiguousarray(item["output"])
        if binary:
            offset = len(payload)
            payload += memoryview(output).cast("B")
            entry["result"] = [
                "blob", offset, output.nbytes, output.dtype.str, list(output.shape),
            ]
        else:
            entry["result"] = _dense_spec(output)
        encoded.append(entry)
    if binary:
        return BINARY_CONTENT_TYPE, pack_frame({"results": encoded}, payload)
    return JSON_CONTENT_TYPE, json.dumps({"results": encoded}).encode("utf-8")


def decode_result_body(content_type: str, body: bytes) -> tuple[dict[str, Any], memoryview | None]:
    """Parse a response body into ``(object, payload-or-None)``.

    The object is the JSON body (JSON responses) or the frame header
    (binary responses, with the payload returned alongside); use
    :func:`decode_result_entry` to materialise arrays out of it.

    Parameters
    ----------
    content_type:
        The response's ``Content-Type`` header value.
    body:
        The raw response body.
    """
    kind = content_type.split(";", 1)[0].strip().lower()
    if kind == BINARY_CONTENT_TYPE:
        return unpack_frame(body)
    try:
        parsed = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise WireFormatError(f"response body is not JSON: {error}") from None
    if not isinstance(parsed, dict):
        raise WireFormatError("response body must be a JSON object")
    return parsed, None


def decode_result_entry(entry: Mapping[str, Any], payload: memoryview | None) -> np.ndarray:
    """Materialise one result array from a parsed response entry.

    Parameters
    ----------
    entry:
        A response object holding a ``result`` field (JSON dense spec,
        or a blob descriptor into ``payload``).
    payload:
        The frame payload for binary responses; None for JSON.
    """
    descriptor = entry.get("result")
    if descriptor is None:
        raise WireFormatError("response entry has no 'result'")
    if payload is not None:
        if not isinstance(descriptor, list) or descriptor[0] != "blob":
            raise WireFormatError(f"bad result descriptor {descriptor!r}")
        _, offset, nbytes, dtype, shape = descriptor
        if offset < 0 or nbytes < 0 or offset + nbytes > len(payload):
            raise WireFormatError("result blob reaches outside the payload")
        array = np.frombuffer(payload[offset : offset + nbytes], dtype=np.dtype(dtype))
        return array.reshape(tuple(int(dim) for dim in shape))
    return _dense_from_spec(descriptor)


# ---------------------------------------------------------------------------
# Error contract
# ---------------------------------------------------------------------------
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


# ---------------------------------------------------------------------------
# Discovery
# ---------------------------------------------------------------------------
def api_index() -> dict[str, Any]:
    """The ``GET /v1`` body: a machine-readable index of the wire API.

    Served by both the gateway itself and the ops endpoint (so an
    operator probing ``/metrics`` discovers the data-plane surface from
    the same place).
    """
    return {
        "service": "repro-gateway",
        "api_version": "v1",
        "endpoints": {
            "GET /v1": "this index",
            "GET /v1/healthz": "session liveness (200 healthy / 503 degraded)",
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
