"""Unit tests of the shared-memory ring and the operand codec."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import codec
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
    def _pair(self, ring):
        return OperandEncoder(ring), OperandDecoder(ring)

    def test_dense_arrays_ride_the_ring(self, ring):
        encoder, decoder = self._pair(ring)
        dense = np.random.default_rng(0).standard_normal((32, 8))
        envelope, controls = encoder.encode_request(1, "expr", {"B": dense}, 0)
        assert controls == []
        assert envelope.operands["B"][0] == "ring"
        operands = decoder.decode(envelope)
        np.testing.assert_array_equal(operands["B"], dense)
        assert ring.free_bytes == ring.capacity  # decode released the space

    def test_repeated_array_cached_worker_side(self, ring):
        encoder, decoder = self._pair(ring)
        stable = np.arange(512, dtype=np.int64)
        kinds = []
        for request_id in range(3):
            envelope, _ = encoder.encode_request(request_id, "expr", {"I": stable}, 0)
            kinds.append(envelope.operands["I"][0])
            out = decoder.decode(envelope)["I"]
            np.testing.assert_array_equal(out, stable)
        # 1st sighting ships plain, 2nd ships + stores, 3rd is a pure ref.
        assert kinds == ["ring", "ring_store", "cached"]

    def test_pattern_broadcast_once_per_fingerprint(self, ring):
        encoder, decoder = self._pair(ring)
        rng = np.random.default_rng(1)
        dense = np.where(rng.random((16, 24)) < 0.2, rng.standard_normal((16, 24)), 0.0)
        fmt = COO.from_dense(dense)
        broadcasts = 0
        for request_id in range(3):
            envelope, controls = encoder.encode_request(request_id, "expr", {"A": fmt}, 0)
            for control in controls:
                assert control[0] == "pattern"
                decoder.store_pattern(control[1], control[2])
                broadcasts += 1
            decoded = decoder.decode(envelope)["A"]
            np.testing.assert_allclose(decoded.to_dense(), dense)
        assert broadcasts == 1
        # All three requests decode to the *same* worker-side instance —
        # the identity the inner server's coalescer keys on.
        envelope, _ = encoder.encode_request(3, "expr", {"A": fmt}, 0)
        first = decoder.decode(envelope)["A"]
        envelope, _ = encoder.encode_request(4, "expr", {"A": fmt}, 0)
        assert decoder.decode(envelope)["A"] is first

    def test_small_and_odd_operands_inline(self, ring):
        encoder, decoder = self._pair(ring)
        envelope, _ = encoder.encode_request(
            1, "expr", {"tiny": np.arange(3), "flag": True}, 0
        )
        assert envelope.operands["tiny"][0] == "inline"
        assert envelope.operands["flag"][0] == "inline"
        operands = decoder.decode(envelope)
        np.testing.assert_array_equal(operands["tiny"], np.arange(3))
        assert operands["flag"] is True

    def test_bad_operand_does_not_desync_cache_mirror(self, ring):
        # Regression: a failing operand must not skip the cache effects
        # of the OTHER descriptors in its envelope — the parent's mirror
        # assumes every ring_store it emitted was applied.
        encoder, decoder = self._pair(ring)
        stable = np.arange(256, dtype=np.int64)
        envelope, _ = encoder.encode_request(0, "expr", {"I": stable}, 0)
        decoder.decode(envelope)  # 1st sighting: plain ring
        envelope, _ = encoder.encode_request(
            1, "expr", {"bad": lambda: None, "I": stable}, 0
        )
        assert envelope.operands["bad"][0] == "bad"
        assert envelope.operands["I"][0] == "ring_store"
        with pytest.raises(TypeError):
            decoder.decode(envelope)  # fails, but must still store I
        envelope, _ = encoder.encode_request(2, "expr", {"I": stable}, 0)
        assert envelope.operands["I"][0] == "cached"
        out = decoder.decode(envelope)["I"]
        np.testing.assert_array_equal(out, stable)

    def test_oversized_array_falls_back_to_inline(self, ring):
        encoder, decoder = self._pair(ring)
        big = np.zeros(ring.max_payload // 8 + 8, dtype=np.float64)
        envelope, _ = encoder.encode_request(0, "expr", {"B": big}, 0)
        assert envelope.operands["B"][0] == "inline"
        np.testing.assert_array_equal(decoder.decode(envelope)["B"], big)

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
        envelope, _ = encoder.encode_request(0, "expr", operands, 0)
        kinds = [envelope.operands[name][0] for name in "ABC"]
        assert kinds == ["ring", "inline", "inline"]
        decoded = decoder.decode(envelope)
        for name, value in operands.items():
            np.testing.assert_array_equal(decoded[name], value)
        assert ring.free_bytes == ring.capacity

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
            envelope, _ = encoder.encode_request(
                request_id, "expr", {"V": fresh, "I": metadata}, 0
            )
            kinds.append(envelope.operands["I"][0])
            decoded = decoder.decode(envelope)
            np.testing.assert_array_equal(decoded["I"], metadata)
            np.testing.assert_array_equal(decoded["V"], fresh)
        # 1st sighting loses the budget race (inline) but is recorded;
        # the 2nd ships + stores; the 3rd is a pure cache reference.
        assert kinds == ["inline", "ring_store", "cached"]

    def test_mutated_cached_array_reships(self, ring):
        # Regression (stale cache): refilling the same buffer with new
        # values per request is a common serving pattern; an identity-only
        # cache would keep answering with the first shipment's bytes.
        encoder, decoder = self._pair(ring)
        buffer = np.arange(512, dtype=np.int64)
        for request_id in range(3):  # promote to the cached tier
            envelope, _ = encoder.encode_request(request_id, "expr", {"I": buffer}, 0)
            decoder.decode(envelope)
        assert envelope.operands["I"][0] == "cached"
        buffer += 1000  # in-place mutation between requests
        envelope, _ = encoder.encode_request(3, "expr", {"I": buffer}, 0)
        assert envelope.operands["I"][0] == "ring_store"  # re-ships + refreshes
        np.testing.assert_array_equal(decoder.decode(envelope)["I"], buffer)
        envelope, _ = encoder.encode_request(4, "expr", {"I": buffer}, 0)
        assert envelope.operands["I"][0] == "cached"  # cached again, new bytes
        np.testing.assert_array_equal(decoder.decode(envelope)["I"], buffer)

    def test_mirror_stays_coherent_through_eviction(self, ring, monkeypatch):
        """More stable arrays and patterns than fit, revisited after their
        eviction: every request decodes to what was sent, and the parent's
        mirror holds the worker's entries in the same LRU order throughout."""
        monkeypatch.setattr(codec, "ARRAY_CACHE_SIZE", 2)
        monkeypatch.setattr(codec, "PATTERN_CACHE_SIZE", 2)
        encoder, decoder = self._pair(ring)
        rng = np.random.default_rng(11)
        arrays = [rng.standard_normal((8, 8)) for _ in range(5)]  # 512 bytes each
        patterns = [COO.from_dense(np.diag(np.arange(1.0, 5.0)) * (k + 1)) for k in range(5)]
        array_kinds, broadcasts = [], []
        picks = zip(rng.integers(0, 5, size=120), rng.integers(0, 5, size=120))
        for request_id, (pick_a, pick_p) in enumerate(picks):
            operands = {"A": patterns[pick_p], "B": arrays[pick_a]}
            envelope, controls = encoder.encode_request(request_id, "expr", operands, 0)
            for _, key, payload in controls:
                decoder.store_pattern(key, payload)
                broadcasts.append(pick_p)
            array_kinds.append((envelope.operands["B"][0], pick_a))
            decoded = decoder.decode(envelope)
            np.testing.assert_array_equal(decoded["B"], arrays[pick_a])
            np.testing.assert_array_equal(decoded["A"].to_dense(), patterns[pick_p].to_dense())
            assert list(encoder._cached_tokens) == list(decoder._arrays)
            assert list(encoder._patterns_sent) == list(decoder._patterns)
            assert len(decoder._arrays) <= 2 and len(decoder._patterns) <= 2
        # The run must have crossed both paths: cache hits, and entries
        # stored again after the LRU dropped them.
        stores = [pick for kind, pick in array_kinds if kind == "ring_store"]
        assert len(stores) > len(set(stores))
        assert any(kind == "cached" for kind, _ in array_kinds)
        assert len(set(broadcasts)) < len(broadcasts) < 120

    def test_result_roundtrip(self, ring):
        out = np.random.default_rng(2).standard_normal((16, 4))
        descriptor, release_to = encode_result(ring, out)
        assert descriptor[0] == "ring"
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
