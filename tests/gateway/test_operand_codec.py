"""The operand codec, once, over every framing.

The cache mirror (:mod:`repro.cluster.codec`) is one implementation
behind the shared-memory ring and the RGW1 frame, so its behaviour is
asserted here once, parametrised over both; what only a ring does
(budget, ``release_to``) stays in ``tests/cluster/test_transport.py``,
what only the wire does (framing, JSON, results, the error table) in
``test_wire.py``.  The fidelity half adds the stateless JSON encoding:
whatever the framing, an operand arrives as the arrays that were sent.
"""

from __future__ import annotations

import itertools
import json

import numpy as np
import pytest

from repro import StackedSparse
from repro.cluster import codec
from repro.cluster.codec import OperandDecoder, OperandEncoder
from repro.cluster.shm import ShmRing
from repro.errors import WireFormatError
from repro.formats import BCSR, COO, CSR, ELL, BlockCOO, BlockGroupCOO, GroupCOO
from repro.gateway import GatewayClient
from repro.gateway.wire import (
    BINARY_CONTENT_TYPE,
    WireDecoder,
    WireEncoder,
    pack_frame,
    unpack_frame,
)


class RingLink:
    """An encoder/decoder pair over one shared-memory ring."""

    def __init__(self, ring):
        self.encoder, self.decoder = OperandEncoder(ring), OperandDecoder(ring)
        self._ids = itertools.count()

    def encode(self, operands):
        """``(message, descriptors by operand name)``."""
        envelope = self.encoder.encode_request(next(self._ids), "e", operands, 0)
        return envelope, envelope.operands

    def decode(self, envelope, descriptors=None):
        if descriptors is not None:
            envelope.operands = descriptors
        return self.decoder.decode_request(envelope)


class WireLink:
    """An encoder/decoder pair over RGW1 frames (one connection)."""

    binary = True

    def __init__(self):
        self.encoder, self.decoder = WireEncoder(), WireDecoder()

    def encode(self, operands):
        content_type, body = self.encoder.encode_request("e", operands, binary=self.binary)
        descriptors = unpack_frame(body)[0]["operands"] if self.binary else None
        return (content_type, body), descriptors

    def decode(self, message, descriptors=None):
        content_type, body = message
        if descriptors is not None:
            header, payload = unpack_frame(body)
            body = pack_frame(dict(header, operands=descriptors), payload)
        return self.decoder.decode_request(content_type, body)[0][1]


class JsonLink(WireLink):
    """The stateless JSON encoding (fidelity only: it has no mirror)."""

    binary = False


def send(link, operands):
    """Encode and decode one request: ``(descriptors, decoded operands)``."""
    message, descriptors = link.encode(operands)
    return descriptors, link.decode(message)


@pytest.fixture
def ring():
    ring = ShmRing.create("repro-test-codec-ring", 1 << 18)
    yield ring
    ring.close()


@pytest.fixture(params=["ring", "rgw1"])
def link(request):
    """Both framings of the cache mirror."""
    if request.param == "rgw1":
        return WireLink()
    return RingLink(request.getfixturevalue("ring"))


@pytest.fixture(params=["ring", "rgw1", "json"])
def any_link(request):
    """Every way an operand crosses a boundary."""
    if request.param == "ring":
        return RingLink(request.getfixturevalue("ring"))
    return WireLink() if request.param == "rgw1" else JsonLink()


def kinds(record):
    """Descriptor kind of every array of a sparse record."""
    return {
        field: value[0]
        for field, value in record.items()
        if isinstance(value, list) and isinstance(value[0], str)
    }


# ---------------------------------------------------------------------------
# The mirror
# ---------------------------------------------------------------------------
class TestMirror:
    def test_stable_array_cached_from_third_send(self, link):
        stable = np.arange(512, dtype=np.int64)
        seen = []
        for _ in range(3):
            descriptors, decoded = send(link, {"I": stable})
            seen.append(descriptors["I"][0])
            np.testing.assert_array_equal(decoded["I"], stable)
        # 1st sighting ships plain, 2nd ships + stores, 3rd is a pure reference.
        assert seen == ["blob", "blob_store", "cached"]
        assert descriptors["I"] == ["cached", descriptors["I"][1]]  # zero bytes moved

    def test_inplace_mutation_reships_and_refreshes(self, link):
        # Refilling the same buffer per request is a common serving pattern;
        # an identity-only cache would keep answering with the first bytes.
        buffer = np.arange(512, dtype=np.int64)
        for _ in range(3):
            descriptors, _ = send(link, {"I": buffer})
        assert descriptors["I"][0] == "cached"
        buffer += 1000  # same buffer, new content: the checksum gate must miss
        descriptors, decoded = send(link, {"I": buffer})
        assert descriptors["I"][0] == "blob_store"  # re-ships and refreshes
        np.testing.assert_array_equal(decoded["I"], buffer)
        descriptors, decoded = send(link, {"I": buffer})
        assert descriptors["I"][0] == "cached"  # cached again, new bytes
        np.testing.assert_array_equal(decoded["I"], buffer)

    def test_pattern_shipped_once_and_decoded_to_one_instance(self, link, block_sparse_matrix):
        fmt = GroupCOO.from_dense(block_sparse_matrix, group_size=4)
        seen, instances = [], []
        for _ in range(3):
            descriptors, decoded = send(link, {"A": fmt})
            seen.append(descriptors["A"][0])
            instances.append(decoded["A"])
        assert seen == ["pattern_store", "pattern", "pattern"]
        # One live instance per key: identity survives across requests, so
        # fingerprint-keyed caches (and affinity keys) stay stable.
        assert instances[1] is instances[0] and instances[2] is instances[0]
        np.testing.assert_array_equal(instances[0].to_dense(), fmt.to_dense())

    def test_fresh_values_reship_and_then_only_the_values_move(self, link, block_sparse_matrix):
        fmt = GroupCOO.from_dense(block_sparse_matrix, group_size=4)
        seen = []
        for scale in (1.0, 2.0, 3.0):
            revalued = fmt.with_values(fmt.values * scale)  # same metadata arrays
            descriptors, decoded = send(link, {"A": revalued})
            assert descriptors["A"][0] == "pattern_store"  # never served stale
            np.testing.assert_array_equal(decoded["A"].values, revalued.values)
            seen.append(kinds(descriptors["A"][2]))
        assert seen[0] == {"group_rows": "blob", "columns": "blob", "values": "blob"}
        assert seen[2] == {"group_rows": "cached", "columns": "cached", "values": "blob"}

    def test_stacked_operand_with_fresh_data_reships(self, link, block_sparse_matrix):
        base = GroupCOO.from_dense(block_sparse_matrix, group_size=4)
        for scale in (1.0, 2.0):
            stacked = StackedSparse(base, np.stack([base.values, base.values * scale]))
            _, decoded = send(link, {"A": stacked})
            np.testing.assert_array_equal(decoded["A"].data, stacked.data)

    def test_cache_effects_applied_before_a_failure_is_raised(self, link):
        # A failing operand must not skip the cache effects of the other
        # descriptors of its message — the sender's mirror assumes every
        # store it emitted was applied.
        stable, fmt = np.arange(256, dtype=np.int64), COO.from_dense(np.eye(4))
        send(link, {"I": stable})  # 1st sighting: plain blob
        message, descriptors = link.encode({"I": stable, "A": fmt})
        assert [descriptors[name][0] for name in ("I", "A")] == ["blob_store", "pattern_store"]
        with pytest.raises(WireFormatError):  # fails, but must still store I and A
            link.decode(message, {"bad": ["cached", 10**9], **descriptors})
        descriptors, decoded = send(link, {"I": stable, "A": fmt})
        assert [descriptors[name][0] for name in ("I", "A")] == ["cached", "pattern"]
        np.testing.assert_array_equal(decoded["I"], stable)
        np.testing.assert_array_equal(decoded["A"].to_dense(), np.eye(4))

    def test_mirror_stays_coherent_through_eviction(self, link, monkeypatch):
        """More stable arrays and patterns than fit, revisited after their
        eviction: every request decodes to what was sent, and both halves
        hold the same entries in the same LRU order after each one."""
        monkeypatch.setattr(codec, "ARRAY_CACHE_SIZE", 2)
        monkeypatch.setattr(codec, "PATTERN_CACHE_SIZE", 2)
        rng = np.random.default_rng(11)
        arrays = [rng.standard_normal((8, 8)) for _ in range(5)]  # 512 bytes each
        patterns = [COO.from_dense(np.diag(np.arange(1.0, 5.0)) * (k + 1)) for k in range(5)]
        seen = {"B": [], "A": []}
        encoder, decoder = link.encoder, link.decoder
        for pick_a, pick_p in zip(rng.integers(0, 5, size=120), rng.integers(0, 5, size=120)):
            descriptors, decoded = send(link, {"A": patterns[pick_p], "B": arrays[pick_a]})
            seen["B"].append((descriptors["B"][0], pick_a))
            seen["A"].append((descriptors["A"][0], pick_p))
            np.testing.assert_array_equal(decoded["B"], arrays[pick_a])
            np.testing.assert_array_equal(decoded["A"].to_dense(), patterns[pick_p].to_dense())
            assert list(encoder._cached_tokens) == list(decoder._arrays)
            assert list(encoder._patterns_sent.values()) == list(decoder._patterns)
            assert len(decoder._arrays) <= 2 and len(decoder._patterns) <= 2
        # The run must have crossed both paths: cache hits, and entries
        # stored again after the LRU dropped them.
        for name, store, hit in (("B", "blob_store", "cached"), ("A", "pattern_store", "pattern")):
            stores = [pick for kind, pick in seen[name] if kind == store]
            assert len(stores) > len(set(stores)), name
            assert any(kind == hit for kind, _ in seen[name]), name

    @pytest.mark.parametrize("dangling", [["cached", 12345], ["pattern", 77]], ids=str)
    def test_dangling_reference_rejected(self, link, dangling):
        message, _ = link.encode({"s": 1.0})
        with pytest.raises(WireFormatError, match="encoder reused across connections"):
            link.decode(message, {"A": dangling})


# ---------------------------------------------------------------------------
# One operand domain
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "value",
    [np.array([object()] * 64), np.array(["text"] * 64), {"not": "an operand"}, lambda: None],
    ids=["object-dtype", "string-dtype", "dict", "function"],
)
def test_out_of_domain_operand_fails_at_encode(value, ring):
    for binary in (True, False):
        with pytest.raises(WireFormatError, match="outside"):
            WireEncoder().encode_request("e", {"A": value}, binary=binary)
    # The ring never fails a request at encode: the operand becomes that
    # request's error, worker-side.
    ring_link = RingLink(ring)
    envelope, descriptors = ring_link.encode({"A": value})
    assert descriptors["A"][0] == "bad"
    with pytest.raises(TypeError, match="operand 'A' could not be encoded"):
        ring_link.decode(envelope)
    assert ring.free_bytes == ring.capacity


# ---------------------------------------------------------------------------
# Fidelity: operands arrive as sent
# ---------------------------------------------------------------------------
def _matrix(dtype, seed=5):
    """A 32 x 32 matrix of 8 x 8 blocks, ~10% of entries set, in ``dtype``."""
    rng = np.random.default_rng(seed)
    dense = np.where(rng.random((32, 32)) < 0.1, rng.integers(1, 9, size=(32, 32)), 0)
    dense = dense.astype(dtype)
    if dense.dtype.kind == "c":
        dense = dense * (1 + 0.5j)
    return dense


def _uncoalesced(dense):
    coo = COO.from_dense(dense)
    doubled = [np.concatenate([coord, coord]) for coord in coo.coords]
    return COO(coo.shape, np.concatenate([coo.values, coo.values]), doubled)


def _stored_zeros(dense):
    fmt = GroupCOO.from_dense(dense, group_size=4)
    values = fmt.values.copy()
    values[0, 0] = 0  # an explicit stored zero: nnz still counts it
    return GroupCOO(fmt.shape, fmt.group_rows, fmt.columns, values, nnz=fmt.nnz)


def _explicit_occupancy(dense):
    ell = ELL.from_dense(dense)
    # An occupancy the values do not imply: it must cross as sent, not be recounted.
    return ELL(ell.shape, ell.values, ell.columns, occupancy=ell.occupancy // 2)


OPERANDS = {
    "coo": COO.from_dense,
    "csr": CSR.from_dense,
    "ell": ELL.from_dense,
    "groupcoo": lambda dense: GroupCOO.from_dense(dense, group_size=4),
    "blockcoo": lambda dense: BlockCOO.from_dense(dense, block_shape=(8, 8)),
    "bcsr": lambda dense: BCSR.from_dense(dense, block_shape=(8, 8)),
    "blockgroupcoo": lambda dense: BlockGroupCOO.from_dense(dense, (8, 8), group_size=2),
    "stacked": lambda dense: StackedSparse.from_dense(
        np.stack([dense, 2 * dense]), GroupCOO, group_size=4
    ),
    "uncoalesced-coo": _uncoalesced,
    "rank3-coo": lambda dense: COO.from_dense(np.stack([dense, dense.T])),
    "stored-zeros": _stored_zeros,
    "ell-occupancy": _explicit_occupancy,
    "empty": lambda dense: GroupCOO.from_dense(np.zeros_like(dense), group_size=4),
}
DTYPES = ["float32", "float64", "int64", "complex128"]


def assert_same_operand(decoded, sent):
    assert type(decoded) is type(sent)
    assert decoded.shape == sent.shape and decoded.nnz == sent.nnz
    for attribute in ("block_shape", "occupancy"):
        np.testing.assert_array_equal(
            getattr(decoded, attribute, None), getattr(sent, attribute, None)
        )
    expected, actual = sent.tensors("A"), decoded.tensors("A")
    assert actual.keys() == expected.keys()
    for name, array in expected.items():
        assert actual[name].dtype == array.dtype, name
        assert actual[name].shape == array.shape, name
        assert actual[name].tobytes() == array.tobytes(), name


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("name", sorted(OPERANDS))
def test_operand_arrives_as_sent(any_link, name, dtype):
    fmt = OPERANDS[name](_matrix(dtype))
    small, large = np.arange(3, dtype=dtype), np.ones((32, 5), dtype=dtype)
    for _ in range(2):  # the second pass decodes from the caches
        _, decoded = send(any_link, {"A": fmt, "small": small, "B": large, "alpha": 2.5})
        assert_same_operand(decoded["A"], fmt)
        for sent, got in ((small, decoded["small"]), (large, decoded["B"])):
            assert (got.dtype, got.shape, got.tobytes()) == (sent.dtype, sent.shape, sent.tobytes())
        assert decoded["alpha"] == 2.5


EXECUTABLE = {
    "coo": "C[m,n] += A[m,k] * B[k,n]",
    "ell": "C[m,n] += A[m,k] * B[k,n]",
    "groupcoo": "C[m,n] += A[m,k] * B[k,n]",
    "blockcoo": "C[m,n] += A[m,k] * B[k,n]",
    "blockgroupcoo": "C[m,n] += A[m,k] * B[k,n]",
    "uncoalesced-coo": "C[m,n] += A[m,k] * B[k,n]",
    "stored-zeros": "C[m,n] += A[m,k] * B[k,n]",
    "empty": "C[m,n] += A[m,k] * B[k,n]",
    "stacked": "C[s,m,n] += A[s,m,k] * B[k,n]",
    "rank3-coo": "C[m,n] += A[s,m,k] * U[s,n] * B[k,n]",  # one indirect axis per factor
}


@pytest.mark.parametrize("binary", [True, False], ids=["rgw1", "json"])
@pytest.mark.parametrize("dtype", DTYPES)
def test_gateway_results_bit_identical_to_inline(inline_gateway, binary, dtype):
    session, server = inline_gateway
    dense = _matrix(dtype)
    rhs = np.random.default_rng(9).integers(-4, 5, size=(32, 6)).astype(dense.dtype)
    with GatewayClient(server.url(""), api_key="key-acme", binary=binary) as client:
        for name, expression in EXECUTABLE.items():
            operands = dict(A=OPERANDS[name](dense), B=rhs)
            if "U[" in expression:
                operands["U"] = rhs[:2]
            inline = session.submit(expression, **operands).result(timeout=60)
            for _ in range(2):  # cold, then from the connection's caches
                remote = client.submit(expression, **operands).result(timeout=60)
                assert remote.dtype == inline.dtype and remote.shape == inline.shape, name
                assert remote.tobytes() == inline.tobytes(), name


def test_large_sparse_operand_crosses_as_its_arrays(inline_gateway):
    """A 20,000 x 20,000 COO (3.2 GB dense) is 1.2 MB of arrays on the wire,
    and a second request on the connection carries only a reference."""
    session, server = inline_gateway
    rng = np.random.default_rng(3)
    rows, cols = rng.integers(0, 20_000, size=(2, 50_000))
    fmt = COO((20_000, 20_000), rng.standard_normal(50_000), (rows, cols))
    encoder = WireEncoder()
    first = encoder.encode_request("e", {"A": fmt})[1]
    second = encoder.encode_request("e", {"A": fmt})[1]
    assert len(first) <= 1_300_000
    assert unpack_frame(second)[0]["operands"]["A"][0] == "pattern" and len(second) < 200
    x = rng.standard_normal(20_000)
    with GatewayClient(server.url(""), api_key="key-acme") as client:
        remote = client.submit("y[m] += A[m,k] * x[k]", A=fmt, x=x).result(timeout=120)
    inline = session.submit("y[m] += A[m,k] * x[k]", A=fmt, x=x).result(timeout=120)
    assert remote.tobytes() == inline.tobytes()


def test_encode_failure_does_not_strand_the_connection_mirror(inline_gateway, spmm_operands):
    """A request refused at encode was never sent, but its earlier operands
    already advanced the encoder's mirror: the client must start over or the
    next request references entries the server never stored."""
    _, server = inline_gateway
    stable = spmm_operands["B"]
    with GatewayClient(server.url(""), api_key="key-acme", max_connections=1) as client:
        client.submit("C[m,n] += A[m,k] * B[k,n]", **spmm_operands).result(timeout=60)
        with pytest.raises(WireFormatError):  # B's 2nd sighting would have stored it
            client.submit("C[m,n] += B[m,n] * s", B=stable, s=object()).result(timeout=60)
        out = client.submit("C[m,n] += A[m,k] * B[k,n]", **spmm_operands).result(timeout=60)
        assert out.shape == (32, 8)


def test_old_dense_projection_forms_are_rejected_not_misread():
    dense = {"kind": "dense", "dtype": "<f8", "shape": [2, 2], "data": [1.0, 0.0, 0.0, 1.0]}
    old_json = dict(dense, kind="sparse", format="coo")
    body = json.dumps({"expression": "e", "operands": {"A": old_json}}).encode()
    with pytest.raises(WireFormatError, match="exactly the fields"):
        WireDecoder().decode_request("application/json", body)
    old_store = ["pattern_store", "k", {"format": "coo"}, ["blob", 0, 32, "<f8", [2, 2]]]
    frame = pack_frame({"expression": "e", "operands": {"A": old_store}}, bytes(32))
    with pytest.raises(WireFormatError, match="takes 2 fields"):
        WireDecoder().decode_request(BINARY_CONTENT_TYPE, frame)
