"""Unit tests of the shared-memory ring and the operand codec."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.codec import OperandDecoder, OperandEncoder, decode_result, encode_result
from repro.cluster.router import Router, affinity_key
from repro.cluster.shm import HEADER_BYTES, ShmRing, segment_exists
from repro.formats import COO


@pytest.fixture
def ring():
    ring = ShmRing.create("repro-test-ring", 1 << 14)
    yield ring
    ring.close()


class TestShmRing:
    def test_roundtrip(self, ring):
        payload = bytes(range(256))
        offset, release_to = ring.write(payload)
        assert bytes(ring.read(offset, len(payload))) == payload
        assert ring.free_bytes == ring.capacity - len(payload)
        ring.release(release_to)
        assert ring.free_bytes == ring.capacity

    def test_wraparound_pads_to_segment_start(self, ring):
        first = bytes(ring.capacity // 2 - 16)
        _, r1 = ring.write(first)
        ring.release(r1)
        _, r2 = ring.write(bytes(ring.capacity // 2))
        ring.release(r2)
        # The cursor now sits 16 bytes before the wrap point: the next
        # write cannot fit contiguously, so it must land at offset 0
        # with the tail padding consumed.
        chunk = bytes(ring.capacity // 2)
        offset, r3 = ring.write(chunk)
        assert offset == 0
        assert bytes(ring.read(offset, len(chunk))) == chunk
        ring.release(r3)
        assert ring.free_bytes == ring.capacity

    def test_full_ring_blocks_until_released(self, ring):
        _, r1 = ring.write(bytes(ring.max_payload))
        _, r2 = ring.write(bytes(ring.max_payload))
        with pytest.raises(TimeoutError):
            ring.write(b"x", timeout=0.05)
        ring.release(r1)
        ring.release(r2)
        ring.write(b"x", timeout=0.05)

    def test_oversized_payload_rejected(self, ring):
        # Anything over half the capacity could wedge the producer
        # forever at an unlucky cursor position, so write() refuses it
        # up front and the codec falls back to inline pickling.
        with pytest.raises(ValueError):
            ring.write(bytes(ring.max_payload + 1))

    def test_max_payload_never_wedges_mid_ring(self, ring):
        # Regression: a max_payload write must succeed from ANY cursor
        # position once the ring drains (pad + n <= capacity holds).
        _, r1 = ring.write(bytes(ring.capacity // 2 - 8))  # awkward offset
        ring.release(r1)
        offset, r2 = ring.write(bytes(ring.max_payload), timeout=1.0)
        ring.release(r2)
        assert ring.free_bytes == ring.capacity

    def test_attach_sees_writes_and_close_unlinks(self, ring):
        name = ring.name
        other = ShmRing.attach(name)
        offset, release_to = ring.write(b"hello")
        assert bytes(other.read(offset, 5)) == b"hello"
        other.release(release_to)
        assert ring.free_bytes == ring.capacity  # release visible across attach
        other.beat()
        assert ring.heartbeat > 0.0
        other.close()  # non-owner close must not unlink
        assert segment_exists(name)

    def test_read_returns_writable_buffer(self, ring):
        array = np.arange(64, dtype=np.float64)
        offset, release_to = ring.write(array)
        out = np.frombuffer(ring.read(offset, array.nbytes), dtype=np.float64)
        out += 1.0  # must not raise: operands are mutated by accumulation
        np.testing.assert_array_equal(out, array + 1.0)
        ring.release(release_to)

    def test_header_reserves_cacheline(self, ring):
        assert ring.capacity == (1 << 14)
        assert HEADER_BYTES >= 24


class TestCodec:
    """What only the ring framing does; the cache mirror it shares with the
    gateway wire is asserted once, in ``tests/gateway/test_operand_codec.py``."""

    def _pair(self, ring):
        return OperandEncoder(ring), OperandDecoder(ring)

    def test_dense_arrays_ride_the_ring(self, ring):
        encoder, decoder = self._pair(ring)
        dense = np.random.default_rng(0).standard_normal((32, 8))
        envelope = encoder.encode_request(1, "expr", {"B": dense}, 0)
        assert envelope.operands["B"][0] == "blob"
        assert envelope.release_to == dense.nbytes
        operands = decoder.decode_request(envelope)
        np.testing.assert_array_equal(operands["B"], dense)
        assert ring.free_bytes == ring.capacity  # decode released the space

    def test_sparse_operand_rides_the_ring_as_its_arrays(self, ring):
        encoder, decoder = self._pair(ring)
        rng = np.random.default_rng(1)
        dense = np.where(rng.random((16, 24)) < 0.2, rng.standard_normal((16, 24)), 0.0)
        fmt = COO.from_dense(dense)
        envelope = encoder.encode_request(0, "expr", {"A": fmt}, 0)
        kind, _, record = envelope.operands["A"]
        assert kind == "pattern_store"
        assert record["values"][0] == "blob" and record["coords"][0][0] == "blob"
        assert envelope.release_to == sum(a.nbytes for a in fmt.tensors("A").values())
        np.testing.assert_allclose(decoder.decode_request(envelope)["A"].to_dense(), dense)
        assert ring.free_bytes == ring.capacity
        # Cached worker-side: the next request moves no bytes at all.
        assert encoder.encode_request(1, "expr", {"A": fmt}, 0).release_to == 0

    def test_small_and_odd_operands_inline(self, ring):
        encoder, decoder = self._pair(ring)
        envelope = encoder.encode_request(1, "expr", {"tiny": np.arange(3), "flag": True}, 0)
        assert envelope.operands["tiny"][0] == "inline"
        assert envelope.operands["flag"][0] == "inline"
        operands = decoder.decode_request(envelope)
        np.testing.assert_array_equal(operands["tiny"], np.arange(3))
        assert operands["flag"] is True

    def test_oversized_array_falls_back_to_inline(self, ring):
        encoder, decoder = self._pair(ring)
        big = np.zeros(ring.max_payload // 8 + 8, dtype=np.float64)
        envelope = encoder.encode_request(0, "expr", {"B": big}, 0)
        assert envelope.operands["B"][0] == "inline"
        np.testing.assert_array_equal(decoder.decode_request(envelope)["B"], big)

    def test_request_ring_footprint_is_budgeted(self, ring):
        # Regression (deadlock): every ring payload of one request stays
        # resident until the worker receives the envelope, so a request
        # whose operands each fit the ring but cumulatively exceed it
        # would block the dispatcher forever.  Over-budget operands must
        # fall back to inline instead.
        encoder, decoder = self._pair(ring)
        rng = np.random.default_rng(4)
        chunk = ring.max_payload // 8 - 64  # each fits; two don't
        operands = {name: rng.standard_normal(chunk) for name in "ABC"}
        envelope = encoder.encode_request(0, "expr", operands, 0)
        kinds = [envelope.operands[name][0] for name in "ABC"]
        assert kinds == ["blob", "inline", "inline"]
        decoded = decoder.decode_request(envelope)
        for name, value in operands.items():
            np.testing.assert_array_equal(decoded[name], value)
        assert ring.free_bytes == ring.capacity

    def test_sparse_operand_over_budget_still_crosses_once(self, ring):
        # The arrays of one sparse operand share the request's budget like
        # any others: what does not fit rides inline, and the operand is
        # cached whole either way.
        encoder, decoder = self._pair(ring)
        count = ring.max_payload // 8 - 64  # values fit; the coordinates no longer do
        fmt = COO((count, 4), np.ones(count), (np.arange(count), np.zeros(count, dtype=np.int64)))
        envelope = encoder.encode_request(0, "expr", {"A": fmt}, 0)
        record = envelope.operands["A"][2]
        assert record["values"][0] == "blob"
        assert [coord[0] for coord in record["coords"]] == ["inline", "inline"]
        decoded = decoder.decode_request(envelope)["A"]
        np.testing.assert_array_equal(decoded.coords[0], fmt.coords[0])
        assert ring.free_bytes == ring.capacity
        envelope = encoder.encode_request(1, "expr", {"A": fmt}, 0)
        assert envelope.operands["A"][0] == "pattern"
        assert decoder.decode_request(envelope)["A"] is decoded

    def test_budget_does_not_starve_repeated_metadata(self, ring):
        # Regression: a large fresh operand encoded first must not eat
        # the whole budget on every request — the repeated metadata
        # array would inline-pickle forever and never reach the
        # zero-bytes cached tier the transport is built around.
        encoder, decoder = self._pair(ring)
        rng = np.random.default_rng(5)
        metadata = np.arange(ring.max_payload // 8 - 64, dtype=np.int64)
        kinds = []
        for request_id in range(3):
            fresh = rng.standard_normal(ring.max_payload // 8 - 64)
            envelope = encoder.encode_request(request_id, "expr", {"V": fresh, "I": metadata}, 0)
            kinds.append(envelope.operands["I"][0])
            decoded = decoder.decode_request(envelope)
            np.testing.assert_array_equal(decoded["I"], metadata)
            np.testing.assert_array_equal(decoded["V"], fresh)
        # 1st sighting loses the budget race (inline) but is recorded;
        # the 2nd ships + stores; the 3rd is a pure cache reference.
        assert kinds == ["inline", "blob_store", "cached"]

    def test_result_roundtrip(self, ring):
        out = np.random.default_rng(2).standard_normal((16, 4))
        descriptor, release_to = encode_result(ring, out)
        assert descriptor[0] == "blob"
        np.testing.assert_array_equal(decode_result(ring, descriptor), out)
        ring.release(release_to)


class TestRouter:
    def test_sticky_and_least_loaded(self):
        router = Router(3)
        load = [5, 0, 2]
        key_a = ("expr-a", ())
        key_b = ("expr-b", ())
        assert router.route(key_a, load) == 1  # least loaded at first sight
        load[1] += 4
        assert router.route(key_a, load) == 1  # sticky despite load change
        assert router.route(key_b, load) == 2  # new key -> now-least-loaded

    def test_forget_worker_reassigns(self):
        router = Router(2)
        key = ("expr", ())
        assert router.route(key, [0, 1]) == 0
        router.forget_worker(0)
        assert router.route(key, [0, 0], exclude=0) == 1

    def test_hot_key_spills_across_pool(self):
        # Regression: a single-key workload (e.g. pure raw indirect
        # Einsum traffic) must not pin one worker while the rest idle.
        router = Router(3, spill_threshold=4)
        key = ("expr", ())
        assert router.route(key, [0, 0, 0]) == 0
        assert router.route(key, [3, 0, 0]) == 0  # below threshold: sticky
        assert router.route(key, [4, 0, 0]) == 1  # saturated: spills
        # The spilled worker joins the sticky set — traffic now balances
        # between the key's workers instead of bouncing randomly.
        assert router.route(key, [4, 1, 0]) == 1
        assert router.route(key, [4, 4, 0]) == 2  # spills again under load
        # No idler worker left: stay on the least-loaded assigned one.
        assert router.route(key, [4, 4, 4]) in (0, 1, 2)
        assert router.route(key, [9, 4, 5]) == 1

    def test_assignment_table_is_bounded(self):
        # Affinity keys embed value-array identity, so clients that
        # rebuild formats per request mint fresh keys forever; the
        # sticky table must not grow with them.
        router = Router(2, max_keys=4)
        for i in range(32):
            router.route((f"expr-{i}", ()), [0, 0])
        assert len(router._assignment) == 4
        # Eviction only forgets stickiness: the key routes again fine.
        assert router.route(("expr-0", ()), [5, 0]) == 1

    def test_spill_prefers_locality_when_pool_is_busy(self):
        # A merely *equally* busy worker is no reason to give up cache
        # locality: spilling requires someone at half the load or less.
        router = Router(2, spill_threshold=4)
        key = ("expr", ())
        assert router.route(key, [0, 0]) == 0
        assert router.route(key, [6, 4]) == 0  # other worker busy too
        assert router.route(key, [6, 3]) == 1  # now meaningfully idler

    def test_affinity_key_distinguishes_patterns(self):
        rng = np.random.default_rng(3)
        dense = np.where(rng.random((8, 8)) < 0.5, 1.0, 0.0)
        fmt_a = COO.from_dense(dense)
        fmt_b = COO.from_dense(dense)
        dense_op = rng.standard_normal((8, 4))
        key_a = affinity_key("C[m,n] += A[m,k] * B[k,n]", {"A": fmt_a, "B": dense_op})
        key_b = affinity_key("C[m,n] += A[m,k] * B[k,n]", {"A": fmt_b, "B": dense_op})
        assert key_a != key_b  # distinct live patterns
        assert key_a == affinity_key(
            "C[m,n] += A[m,k] * B[k,n]", {"A": fmt_a, "B": rng.standard_normal((8, 4))}
        )  # dense values don't affect routing
