"""The wire codec: framing, operand specs, cache mirror, error contract."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cluster import codec
from repro.errors import (
    ClusterBusyError,
    ControlThreadError,
    DeadlineExceededError,
    FutureCancelledError,
    GatewayAuthError,
    GatewayError,
    PoisonedRequestError,
    SessionClosedError,
    TenantQuotaError,
    WireFormatError,
    WorkerCrashedError,
)
from repro.formats import BCSR, BlockCOO, BlockGroupCOO, COO, CSR, ELL, GroupCOO
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
SPARSE_BUILDERS = {
    "coo": lambda dense: COO.from_dense(dense),
    "csr": lambda dense: CSR.from_dense(dense),
    "ell": lambda dense: ELL.from_dense(dense),
    "groupcoo": lambda dense: GroupCOO.from_dense(dense, group_size=4),
    "blockcoo": lambda dense: BlockCOO.from_dense(dense, block_shape=(8, 8)),
    "bcsr": lambda dense: BCSR.from_dense(dense, block_shape=(8, 8)),
    "blockgroupcoo": lambda dense: BlockGroupCOO.from_dense(
        dense, block_shape=(8, 8), group_size=2
    ),
}


def _round_trip(operands, binary):
    content_type, body = WireEncoder().encode_request("C[m,n] += A[m,k] * B[k,n]",
                                                      operands, binary=binary)
    requests = WireDecoder().decode_request(content_type, body)
    assert len(requests) == 1
    expression, decoded = requests[0]
    assert expression == "C[m,n] += A[m,k] * B[k,n]"
    return decoded


@pytest.mark.parametrize("binary", [True, False], ids=["binary", "json"])
@pytest.mark.parametrize("name", sorted(SPARSE_BUILDERS))
def test_sparse_operand_round_trip(name, binary, block_sparse_matrix):
    fmt = SPARSE_BUILDERS[name](block_sparse_matrix)
    decoded = _round_trip({"A": fmt, "B": np.ones((64, 3))}, binary)
    assert type(decoded["A"]) is type(fmt)
    np.testing.assert_array_equal(decoded["A"].to_dense(), fmt.to_dense())
    np.testing.assert_array_equal(decoded["B"], np.ones((64, 3)))


@pytest.mark.parametrize("binary", [True, False], ids=["binary", "json"])
def test_scalar_and_dense_round_trip(binary, dense_pair):
    a, b = dense_pair
    decoded = _round_trip({"A": a, "B": b, "alpha": 2.5, "name": "x", "flag": True}, binary)
    np.testing.assert_array_equal(decoded["A"], a)
    np.testing.assert_array_equal(decoded["B"], b)
    assert decoded["alpha"] == 2.5
    assert decoded["name"] == "x"
    assert decoded["flag"] is True


def test_object_dtype_rejected():
    with pytest.raises(WireFormatError):
        WireEncoder().encode_request("e", {"A": np.array([object()])}, binary=False)


def test_unsupported_operand_type_rejected():
    with pytest.raises(WireFormatError):
        WireEncoder().encode_request("e", {"A": {"not": "wire-safe"}}, binary=True)


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


# ---------------------------------------------------------------------------
# The per-connection cache mirror
# ---------------------------------------------------------------------------
class TestCacheMirror:
    def test_stable_array_cached_from_third_send(self, dense_pair):
        a, _ = dense_pair
        encoder, decoder = WireEncoder(), WireDecoder()
        sizes = []
        for _ in range(3):
            content_type, body = encoder.encode_request("e", {"A": a}, binary=True)
            decoded = decoder.decode_request(content_type, body)
            np.testing.assert_array_equal(decoded[0][1]["A"], a)
            sizes.append(len(body))
        # Send 1 ships the blob, send 2 ships blob_store, send 3 hits the cache.
        header, _ = unpack_frame(body)
        assert header["operands"]["A"][0] == "cached"
        assert sizes[2] < sizes[0]

    def test_inplace_mutation_reships(self, dense_pair):
        a, _ = dense_pair
        encoder, decoder = WireEncoder(), WireDecoder()
        for _ in range(3):
            content_type, body = encoder.encode_request("e", {"A": a}, binary=True)
            decoder.decode_request(content_type, body)
        a[0, 0] += 1.0  # same buffer, new content: the checksum gate must miss
        content_type, body = encoder.encode_request("e", {"A": a}, binary=True)
        header, _ = unpack_frame(body)
        assert header["operands"]["A"][0] != "cached"
        decoded = decoder.decode_request(content_type, body)
        np.testing.assert_array_equal(decoded[0][1]["A"], a)

    def test_pattern_shipped_once_and_identity_cached(self, block_sparse_matrix):
        fmt = GroupCOO.from_dense(block_sparse_matrix, group_size=4)
        encoder, decoder = WireEncoder(), WireDecoder()
        content_type, body = encoder.encode_request("e", {"A": fmt}, binary=True)
        first = decoder.decode_request(content_type, body)[0][1]["A"]
        content_type, body = encoder.encode_request("e", {"A": fmt}, binary=True)
        header, _ = unpack_frame(body)
        assert header["operands"]["A"][0] == "pattern"
        second = decoder.decode_request(content_type, body)[0][1]["A"]
        # One live instance per key: identity survives across requests, so
        # fingerprint-keyed caches (and coalescing keys) stay stable.
        assert second is first
        np.testing.assert_array_equal(first.to_dense(), fmt.to_dense())

    def test_dangling_cached_token_rejected(self):
        with pytest.raises(WireFormatError):
            WireDecoder().decode_request(
                BINARY_CONTENT_TYPE,
                pack_frame({"expression": "e", "operands": {"A": ["cached", 12345]}}),
            )

    def test_cache_effects_applied_before_failure(self):
        encoder, decoder = WireEncoder(), WireDecoder()
        # Batch where the FIRST entry is malformed but the second stores a
        # pattern: the decoder must still apply the second entry's cache
        # effect before re-raising, or the mirror drifts.
        fmt = COO.from_dense(np.eye(4))
        payload = bytearray()
        good = encoder._encode_entry("e", {"A": fmt}, payload)
        bad = {"operands": {}}  # no expression
        body = pack_frame({"requests": [bad, good]}, payload)
        with pytest.raises(WireFormatError):
            decoder.decode_request(BINARY_CONTENT_TYPE, body)
        # The pattern is now resident: a bare reference must resolve.
        content_type, body = encoder.encode_request("e", {"A": fmt}, binary=True)
        decoded = decoder.decode_request(content_type, body)
        np.testing.assert_array_equal(decoded[0][1]["A"].to_dense(), np.eye(4))

    def test_mirror_stays_coherent_through_eviction(self, monkeypatch):
        """More stable arrays and patterns than fit, revisited after their
        eviction: every request decodes to what was sent, and both ends
        hold the same entries in the same LRU order after each one."""
        monkeypatch.setattr(codec, "ARRAY_CACHE_SIZE", 2)
        monkeypatch.setattr(codec, "PATTERN_CACHE_SIZE", 2)
        rng = np.random.default_rng(11)
        arrays = [rng.standard_normal((8, 8)) for _ in range(5)]  # 512 bytes each
        patterns = [COO.from_dense(np.diag(np.arange(1.0, 5.0)) * (k + 1)) for k in range(5)]
        encoder, decoder = WireEncoder(), WireDecoder()
        kinds = {"array": [], "pattern": []}
        for pick_a, pick_p in zip(rng.integers(0, 5, size=120), rng.integers(0, 5, size=120)):
            operands = {"A": patterns[pick_p], "B": arrays[pick_a]}
            content_type, body = encoder.encode_request("e", operands, binary=True)
            header, _ = unpack_frame(body)
            kinds["array"].append((header["operands"]["B"][0], pick_a))
            kinds["pattern"].append((header["operands"]["A"][0], pick_p))
            decoded = decoder.decode_request(content_type, body)[0][1]
            np.testing.assert_array_equal(decoded["B"], arrays[pick_a])
            np.testing.assert_array_equal(decoded["A"].to_dense(), patterns[pick_p].to_dense())
            assert list(encoder._cached_tokens) == list(decoder._arrays)
            assert list(encoder._patterns_sent) == list(decoder._patterns)
            assert len(decoder._arrays) <= 2 and len(decoder._patterns) <= 2
        # The run must have crossed both paths: cache hits, and entries
        # stored again after the LRU dropped them.
        for family, store, hit in (
            ("array", "blob_store", "cached"),
            ("pattern", "pattern_store", "pattern"),
        ):
            stores = [pick for kind, pick in kinds[family] if kind == store]
            assert len(stores) > len(set(stores)), family
            assert any(kind == hit for kind, _ in kinds[family]), family


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
