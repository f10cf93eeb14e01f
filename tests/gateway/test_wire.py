"""The gateway wire: framing, JSON specs, malformed input, results, error contract.

The cache mirror and operand fidelity, which the wire shares with the
ring, are asserted in ``test_operand_codec.py``.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.errors import (
    ClusterBusyError,
    ControlThreadError,
    DeadlineExceededError,
    FormatError,
    FutureCancelledError,
    GatewayAuthError,
    GatewayError,
    PoisonedRequestError,
    SessionClosedError,
    TenantQuotaError,
    WireFormatError,
    WorkerCrashedError,
)
from repro.formats import COO
from repro.gateway.wire import (
    BINARY_CONTENT_TYPE,
    JSON_CONTENT_TYPE,
    WIRE_MAGIC,
    WireDecoder,
    WireEncoder,
    decode_error,
    decode_result_body,
    decode_result_entry,
    encode_batch_results,
    encode_error,
    encode_result,
    http_status,
    pack_frame,
    unpack_frame,
)


@pytest.fixture
def dense_pair(rng):
    a = rng.standard_normal((6, 9))
    b = rng.standard_normal((9, 4))
    return a, b


# ---------------------------------------------------------------------------
# Framing
# ---------------------------------------------------------------------------
class TestFraming:
    def test_round_trip(self):
        header, payload = unpack_frame(pack_frame({"expression": "x"}, b"\x01\x02"))
        assert header == {"expression": "x"}
        assert bytes(payload) == b"\x01\x02"

    def test_bad_magic_rejected(self):
        body = b"NOPE" + pack_frame({})[len(WIRE_MAGIC) :]
        with pytest.raises(WireFormatError):
            unpack_frame(body)

    def test_truncated_header_rejected(self):
        body = pack_frame({"expression": "x"})
        with pytest.raises(WireFormatError):
            unpack_frame(body[: len(body) - 4])

    def test_non_object_header_rejected(self):
        encoded = json.dumps([1, 2]).encode()
        body = WIRE_MAGIC + len(encoded).to_bytes(4, "little") + encoded
        with pytest.raises(WireFormatError):
            unpack_frame(body)


# ---------------------------------------------------------------------------
# Operand round trips (both encodings, all formats)
# ---------------------------------------------------------------------------
def _round_trip(operands, binary):
    content_type, body = WireEncoder().encode_request("C[m,n] += A[m,k] * B[k,n]",
                                                      operands, binary=binary)
    requests = WireDecoder().decode_request(content_type, body)
    assert len(requests) == 1
    expression, decoded = requests[0]
    assert expression == "C[m,n] += A[m,k] * B[k,n]"
    return decoded


@pytest.mark.parametrize("binary", [True, False], ids=["binary", "json"])
def test_scalar_and_dense_round_trip(binary, dense_pair):
    a, b = dense_pair
    decoded = _round_trip({"A": a, "B": b, "alpha": 2.5, "name": "x", "flag": True}, binary)
    np.testing.assert_array_equal(decoded["A"], a)
    np.testing.assert_array_equal(decoded["B"], b)
    assert decoded["alpha"] == 2.5
    assert decoded["name"] == "x"
    assert decoded["flag"] is True


def test_unknown_content_type_rejected():
    with pytest.raises(WireFormatError):
        WireDecoder().decode_request("text/html", b"<html>")


def test_batch_round_trip(dense_pair):
    a, b = dense_pair
    content_type, body = WireEncoder().encode_batch(
        [("e1", {"A": a}), ("e2", {"B": b})], binary=True
    )
    assert content_type == BINARY_CONTENT_TYPE
    requests = WireDecoder().decode_request(content_type, body)
    assert [expression for expression, _ in requests] == ["e1", "e2"]
    np.testing.assert_array_equal(requests[0][1]["A"], a)
    np.testing.assert_array_equal(requests[1][1]["B"], b)


def test_batch_entry_failure_still_applies_later_entries():
    # A batch whose FIRST entry is malformed while the second stores a
    # pattern: every entry is decoded before the failure is re-raised, or
    # the connection's mirror drifts.
    encoder, decoder = WireEncoder(), WireDecoder()
    fmt = COO.from_dense(np.eye(4))
    header, payload = unpack_frame(encoder.encode_batch([("e", {"A": fmt})])[1])
    body = pack_frame({"requests": [{"operands": {}}, *header["requests"]]}, payload)
    with pytest.raises(WireFormatError, match="expression"):
        decoder.decode_request(BINARY_CONTENT_TYPE, body)
    # The pattern is now resident: a bare reference must resolve.
    content_type, body = encoder.encode_request("e", {"A": fmt}, binary=True)
    assert unpack_frame(body)[0]["operands"]["A"][0] == "pattern"
    decoded = decoder.decode_request(content_type, body)
    np.testing.assert_array_equal(decoded[0][1]["A"].to_dense(), np.eye(4))


# ---------------------------------------------------------------------------
# Malformed descriptors and specs: always WireFormatError (HTTP 400)
# ---------------------------------------------------------------------------
_BLOB = ["blob", 0, 256, "<f8", [32]]
_DENSE = {"kind": "dense", "dtype": "<f8", "shape": [2], "data": [1.0, 2.0]}
_COO = {"format": "coo", "shape": [4, 4], "values": _BLOB, "coords": [_BLOB, _BLOB]}
MALFORMED_DESCRIPTORS = {
    # The seven that answered 500 before the codec checked before use.
    "offset-not-int": ["blob", "0", 256, "<f8", [32]],
    "blob-too-short": ["blob", 0],
    "pattern-store-too-short": ["pattern_store", "k"],
    "record-not-object": ["pattern_store", 1, ["coo"]],
    "inline-without-payload": ["inline"],
    "unhashable-token": ["blob_store", 0, 256, "<f8", [32], [1]],
    "dtype-syntax-error": ["blob", 0, 256, "{'names':", [32]],
    # And their neighbours.
    "not-a-list": {"kind": "blob"},
    "empty": [],
    "kind-not-str": [["blob"], 0, 256, "<f8", [32]],
    "unknown-kind": ["json", {"kind": "scalar", "value": 1}],
    "negative-offset": ["blob", -8, 256, "<f8", [32]],
    "bool-offset": ["blob", False, 256, "<f8", [32]],
    "outside-payload": ["blob", 128, 256, "<f8", [32]],
    "shape-not-list": ["blob", 0, 256, "<f8", 32],
    "shape-mismatch": ["blob", 0, 256, "<f8", [31]],
    "negative-dim": ["blob", 0, 256, "<f8", [-32, -1]],
    "object-dtype": ["blob", 0, 256, "|O", [32]],
    "string-dtype": ["blob", 0, 256, "<U8", [8]],
    "structured-dtype": ["blob", 0, 256, "i4, f4", [32]],
    "dtype-not-str": ["blob", 0, 256, 8, [32]],
    "float-token": ["blob_store", 0, 256, "<f8", [32], 1.5],
    "unhashable-reference": ["cached", {"a": 1}],
    "unhashable-pattern-key": ["pattern", [1]],
    "string-pattern-key": ["pattern_store", "k", _COO],
    "unknown-format": ["pattern_store", 1, dict(_COO, format="stackedsparse2")],
    "format-not-str": ["pattern_store", 1, dict(_COO, format=["coo"])],
    "missing-field": ["pattern_store", 1, {"format": "coo", "shape": [4, 4], "values": _BLOB}],
    "extra-field": ["pattern_store", 1, dict(_COO, group_size=4)],
    "shape-of-strings": ["pattern_store", 1, dict(_COO, shape=["a", "b"])],
    "coords-not-list": ["pattern_store", 1, dict(_COO, coords=_BLOB[0])],
    "array-is-a-scalar": ["pattern_store", 1, dict(_COO, values=["inline", {"kind": "scalar"}])],
    "array-is-a-pattern": ["pattern_store", 1, dict(_COO, values=["pattern", 1])],
    "zero-block": [
        "pattern_store", 1,
        {"format": "bcsr", "shape": [8, 8], "block_shape": [0, 0],
         "indptr": _BLOB, "indices": _BLOB, "values": _BLOB},
    ],
    "short-block-shape": [
        "pattern_store", 1,
        {"format": "blockcoo", "shape": [8, 8], "block_shape": [],
         "block_rows": _BLOB, "block_cols": _BLOB, "values": _BLOB},
    ],
    "nested-stack": [
        "pattern_store", 1,
        {"format": "stackedsparse", "data": _BLOB,
         "base": {"format": "stackedsparse", "data": _BLOB, "base": _COO}},
    ],
    "inline-bad-spec": ["inline", {"kind": "dense", "dtype": "<f8", "shape": [3], "data": [1]}],
    "inline-scalar-not-scalar": ["inline", {"kind": "scalar", "value": [1, 2]}],
    "inline-old-sparse-spec": ["inline", dict(_DENSE, kind="sparse", format="coo")],
}


@pytest.mark.parametrize("name", sorted(MALFORMED_DESCRIPTORS))
def test_malformed_descriptor_is_a_wire_format_error(name):
    body = pack_frame({"expression": "e", "operands": {"A": MALFORMED_DESCRIPTORS[name]}}, bytes(256))
    with pytest.raises(WireFormatError) as excinfo:
        WireDecoder().decode_request(BINARY_CONTENT_TYPE, body)
    assert http_status(excinfo.value) == 400


@pytest.mark.parametrize(
    "record",
    [
        dict(_COO, shape=[2, 2]),  # coordinates outside the shape (values are zeros: in range)
        dict(_COO, shape=[4]),  # one coordinate array too many
        {"format": "csr", "shape": [4, 4], "indptr": _BLOB, "indices": _BLOB, "data": _BLOB},
    ],
    ids=["coords-out-of-range", "rank-mismatch", "indptr-shape"],
)
def test_constructor_violation_stays_a_typed_400(record):
    payload = np.full(32, 3.0).tobytes()
    body = pack_frame({"expression": "e", "operands": {"A": ["pattern_store", 1, record]}}, payload)
    with pytest.raises(FormatError) as excinfo:  # ShapeError names the violated invariant
        WireDecoder().decode_request(BINARY_CONTENT_TYPE, body)
    assert http_status(excinfo.value) == 400


@pytest.mark.parametrize(
    "spec",
    [
        "not-an-object",
        {"kind": "tensor"},
        {"kind": "dense", "dtype": "<f8", "shape": [2]},
        {"kind": "dense", "dtype": "O", "shape": [1], "data": [None]},
        {"kind": "dense", "dtype": "<i8", "shape": [1], "data": [2**80]},
        {"kind": "dense", "dtype": "<c16", "shape": [2], "data": [1.0, 2.0, 3.0]},
        {"kind": "scalar", "value": {"a": 1}},
        {"kind": "sparse", "format": "coo", "shape": [2, 2]},
    ],
    ids=repr,
)
def test_malformed_json_spec_is_a_wire_format_error(spec):
    body = json.dumps({"expression": "e", "operands": {"A": spec}}).encode()
    with pytest.raises(WireFormatError):
        WireDecoder().decode_request(JSON_CONTENT_TYPE, body)


def test_deeply_nested_json_is_a_wire_format_error():
    with pytest.raises(WireFormatError, match="not JSON"):
        WireDecoder().decode_request(JSON_CONTENT_TYPE, b"[" * 100_000)


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("binary", [True, False], ids=["binary", "json"])
def test_result_round_trip(binary, rng):
    output = rng.standard_normal((5, 7))
    content_type, body = encode_result({"latency_ms": 1.5}, output, binary=binary)
    entry, payload = decode_result_body(content_type, body)
    assert entry["latency_ms"] == 1.5
    np.testing.assert_array_equal(decode_result_entry(entry, payload), output)


@pytest.mark.parametrize("binary", [True, False], ids=["binary", "json"])
def test_batch_results_mix_outputs_and_errors(binary, rng):
    output = rng.standard_normal(4)
    content_type, body = encode_batch_results(
        [
            {"output": output, "latency_ms": 0.5},
            {"error": DeadlineExceededError("too slow"), "status": 504},
        ],
        binary=binary,
    )
    parsed, payload = decode_result_body(content_type, body)
    ok, failed = parsed["results"]
    np.testing.assert_array_equal(decode_result_entry(ok, payload), output)
    assert failed["status"] == 504
    assert isinstance(decode_error(failed), DeadlineExceededError)


# ---------------------------------------------------------------------------
# Error contract
# ---------------------------------------------------------------------------
STATUS_TABLE = [
    (GatewayAuthError("missing", status=401), 401),
    (GatewayAuthError("unknown", status=403), 403),
    (ClusterBusyError(8, 8, 0.1), 429),
    (TenantQuotaError("acme", 4, 4, 0.05), 429),
    (DeadlineExceededError("late"), 504),
    (FutureCancelledError("gone"), 409),
    (PoisonedRequestError("poison"), 422),
    (WorkerCrashedError("crash"), 503),
    (ControlThreadError("dead"), 503),
    (SessionClosedError("closed"), 503),
    (WireFormatError("bad frame"), 400),
    (GatewayError("other"), 422),
    (RuntimeError("unknown"), 500),
]


@pytest.mark.parametrize(
    "error,status", STATUS_TABLE, ids=[type(e).__name__ + str(s) for e, s in STATUS_TABLE]
)
def test_http_status_table(error, status):
    assert http_status(error) == status


def test_tenant_quota_error_round_trips_fields():
    rebuilt = decode_error(encode_error(TenantQuotaError("acme", 7, 4, 0.25)))
    assert isinstance(rebuilt, TenantQuotaError)
    assert isinstance(rebuilt, ClusterBusyError)  # taxonomy preserved
    assert (rebuilt.tenant, rebuilt.inflight, rebuilt.limit) == ("acme", 7, 4)
    assert rebuilt.retry_after == 0.25


def test_cluster_busy_error_round_trips_fields():
    rebuilt = decode_error(encode_error(ClusterBusyError(9, 8, 0.5)))
    assert isinstance(rebuilt, ClusterBusyError)
    assert (rebuilt.inflight, rebuilt.limit, rebuilt.retry_after) == (9, 8, 0.5)


def test_auth_error_round_trips_status():
    rebuilt = decode_error(encode_error(GatewayAuthError("unknown API key", status=403)))
    assert isinstance(rebuilt, GatewayAuthError)
    assert rebuilt.status == 403


@pytest.mark.parametrize(
    "error",
    [DeadlineExceededError("late"), PoisonedRequestError("p"), WireFormatError("w")],
    ids=lambda e: type(e).__name__,
)
def test_known_types_come_back_as_themselves(error):
    rebuilt = decode_error(encode_error(error))
    assert type(rebuilt) is type(error)
    assert str(rebuilt) == str(error)


def test_unknown_type_degrades_to_gateway_error():
    rebuilt = decode_error({"error": {"type": "FancyNewError", "message": "boom"}})
    assert isinstance(rebuilt, GatewayError)
    assert "FancyNewError" in str(rebuilt)


def test_malformed_error_body_degrades():
    assert isinstance(decode_error({"error": "not-an-object"}), GatewayError)
