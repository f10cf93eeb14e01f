"""Operand/result codec: what goes through the ring, what gets cached where.

The cluster moves three kinds of operand through three channels:

* **Dense arrays** — raw bytes through the shared-memory ring
  (descriptor ``("ring", offset, nbytes, dtype, shape)``).  Arrays the
  parent has seen before (by identity token *and* content checksum) are
  *stable* — typically index/metadata tensors of raw indirect Einsums
  that repeat across requests — and are cached worker-side: the second
  sighting ships with ``("ring_store", ..., token)`` and every later
  request references it as ``("cached", token)`` with zero bytes moved.
  The checksum is what makes in-place mutation safe: a cached buffer
  refilled with new values no longer matches, so it re-ships (and
  refreshes the worker's entry) instead of silently serving stale
  bytes.  Both sides run the same LRU over the same descriptor stream,
  so the parent's mirror of the worker cache never diverges.
* **Sparse formats** — broadcast once per fingerprint as a pickled
  control message ``("pattern", key, payload)``; every request then
  references the worker's cached instance via ``("pattern", key)``.
  A pattern whose metadata repeats under fresh values re-broadcasts
  (fingerprints include the value array's identity), which the serving
  workloads make rare: patterns are long-lived, values ride dense.
* **Everything else** (scalars, tiny arrays, object dtypes, oversized
  payloads) — inline-pickled in the envelope ``("inline", payload)``.

Ring writes are budgeted **per request**, not just per payload: the
worker releases an envelope's ring space only after the envelope
arrives, so every ring-borne operand of one request is resident in the
ring simultaneously.  A request whose operands cumulatively exceeded
the ring's ``max_payload`` (half its capacity) could therefore block
the dispatcher forever against a perfectly healthy worker.  Once a
request's cumulative ring footprint would pass that bound, its
remaining arrays fall back to inline pickling — same escape hatch as a
single oversized payload.

Encoding never fails a request: an operand that cannot be encoded at all
becomes ``("bad", repr)`` and surfaces worker-side as a per-request
error, with ring space still released by the envelope that carried it.
"""

from __future__ import annotations

import pickle
import zlib
from collections import OrderedDict
from typing import Any, Callable

import numpy as np

from repro.cluster.messages import RequestEnvelope
from repro.cluster.shm import ShmRing
from repro.engine.fingerprint import array_token
from repro.formats.base import SparseFormat

#: Arrays smaller than this pickle inline — a ring round-trip plus a
#: descriptor costs more than pickling a few dozen bytes.
INLINE_BYTES = 128

#: Worker-side stable-array cache entries (LRU beyond this).
ARRAY_CACHE_SIZE = 256

#: Worker-side pattern cache entries (LRU beyond this).  Parent and
#: worker apply identical updates per descriptor, so an evicted pattern
#: is evicted on both sides and simply re-broadcasts on next use.
PATTERN_CACHE_SIZE = 512


def transport_payload(array: np.ndarray) -> np.ndarray | None:
    """The contiguous, transport-ready view of ``array`` (or None).

    None means the array should ride inline instead: object dtypes
    cannot be sent as raw bytes, and arrays under :data:`INLINE_BYTES`
    cost more as a descriptor + raw-byte round trip than as a small
    inline value.  Shared by the ring codec and the HTTP gateway's wire
    codec, so both transports draw the inline/raw boundary identically.
    """
    if array.dtype.hasobject or array.nbytes < INLINE_BYTES:
        return None
    return np.ascontiguousarray(array)


def content_checksum(payload: np.ndarray) -> int:
    """Content checksum guarding the identity caches against in-place
    mutation.  crc32 over adler32: same C-speed, but no linear structure
    — adler32 is two byte *sums*, which realistic metadata edits (e.g.
    compensating increments 65521 elements apart) can leave unchanged.
    """
    return zlib.crc32(payload.data.cast("B"))


def pattern_key(fmt: SparseFormat) -> tuple:
    """The cache identity of a sparse pattern: (fingerprint, values token).

    The fingerprint covers the pattern's metadata identity; the value
    array's own identity token is appended so a pattern whose metadata
    repeats under fresh values re-ships instead of serving stale values.
    Both the ring codec and the gateway wire codec key their pattern
    caches with this, which is what keeps worker-side coalescing keys
    matching no matter which transport delivered the operand.
    """
    values = getattr(fmt, "values", None)
    values_token = array_token(values) if isinstance(values, np.ndarray) else None
    return (fmt.fingerprint(), values_token)


class OperandEncoder:
    """Parent-side encoder for one worker incarnation.

    Owns the parent's mirror of the worker's pattern and stable-array
    caches; a worker restart discards the encoder together with the
    worker, so the mirrors can never outlive the caches they shadow.
    """

    def __init__(self, ring: ShmRing):
        self.ring = ring
        self._patterns_sent: OrderedDict[tuple, None] = OrderedDict()
        #: token -> content checksum of the bytes the worker caches.
        self._cached_tokens: OrderedDict[int, int] = OrderedDict()
        #: identity tokens sighted at least once (LRU set).
        self._seen_tokens: OrderedDict[int, None] = OrderedDict()

    # -- helpers ------------------------------------------------------------
    def _write(self, payload: np.ndarray, should_abort, release_to: int) -> tuple[tuple, int]:
        offset, release = self.ring.write(payload, should_abort=should_abort)
        descriptor = ("ring", offset, payload.nbytes, payload.dtype.str, payload.shape)
        return descriptor, max(release_to, release)

    def _encode_array(
        self, array: np.ndarray, should_abort, release_to: int, budget: int
    ) -> tuple[tuple, int, int]:
        """Encode one dense array; returns (descriptor, release_to, ring_bytes).

        ``budget`` is the request's remaining ring allowance: a payload
        that fits the ring but not the budget inline-pickles instead,
        without touching the stability bookkeeping (the array is simply
        reconsidered next time it appears under budget).
        """
        payload = transport_payload(array)
        if payload is None or payload.nbytes > self.ring.max_payload:
            return ("inline", pickle.dumps(np.asarray(array))), release_to, 0
        token = array_token(array)
        # First sighting needs no checksum: there is nothing to compare
        # against, and fresh-per-request value tensors (new token every
        # time) would pay a full-payload crc on the one dispatcher thread
        # for nothing.  From the second sighting on, the checksum gates
        # cached hits — a cached token whose content changed (buffer
        # refilled in place) re-ships as a store, refreshing the worker's
        # stale entry instead of silently serving old bytes.
        stable = token in self._cached_tokens or token in self._seen_tokens
        checksum = content_checksum(payload) if stable else None
        if checksum is not None and self._cached_tokens.get(token) == checksum:
            self._cached_tokens.move_to_end(token)
            return ("cached", token), release_to, 0
        self._seen_tokens[token] = None
        self._seen_tokens.move_to_end(token)
        while len(self._seen_tokens) > 4 * ARRAY_CACHE_SIZE:
            self._seen_tokens.popitem(last=False)
        if payload.nbytes > budget:
            # Parent-only sighting above still counts: a later encounter
            # with budget to spare promotes straight to the cached tier
            # instead of this array inline-pickling forever.
            return ("inline", pickle.dumps(np.asarray(array))), release_to, 0
        descriptor, release_to = self._write(payload, should_abort, release_to)
        if stable:
            descriptor = ("ring_store", *descriptor[1:], token)
            self._cached_tokens[token] = checksum
            while len(self._cached_tokens) > ARRAY_CACHE_SIZE:
                self._cached_tokens.popitem(last=False)
        return descriptor, release_to, payload.nbytes

    def _encode_pattern(self, fmt: SparseFormat) -> tuple[tuple, list[tuple]]:
        key = pattern_key(fmt)
        controls: list[tuple] = []
        if key in self._patterns_sent:
            self._patterns_sent.move_to_end(key)
        else:
            controls.append(("pattern", key, pickle.dumps(fmt)))
            self._patterns_sent[key] = None
            while len(self._patterns_sent) > PATTERN_CACHE_SIZE:
                self._patterns_sent.popitem(last=False)
        return ("pattern", key), controls

    # -- public API ---------------------------------------------------------
    def encode_request(
        self,
        request_id: int,
        expression: str,
        operands: dict[str, Any],
        attempt: int,
        should_abort: Callable[[], bool] | None = None,
    ) -> tuple[RequestEnvelope, list[tuple]]:
        """Encode one request into (envelope, control messages).

        Control messages (pattern broadcasts) must be queued *before*
        the envelope — the queue's FIFO order is what guarantees the
        worker's cache is populated when the reference arrives.

        The request's ring writes are budgeted to ``ring.max_payload``
        in total: all of them stay resident until the worker receives
        the envelope, so an unbudgeted request bigger than the ring
        would block the dispatcher forever.  Over-budget arrays ride
        inline instead.
        """
        controls: list[tuple] = []
        encoded: dict[str, tuple] = {}
        release_to = 0
        budget = self.ring.max_payload
        # Spend the budget on repeated arrays first: they are the ones a
        # ring write can promote to the zero-bytes cached tier, while a
        # fresh array pays the same whether it rides the ring now or
        # inline-pickles this once.  Without this, one large fresh
        # operand encoded first could starve a request's repeated
        # metadata out of the cache on every request.  The envelope
        # preserves this processing order, keeping the worker's cache
        # replay aligned with the parent's mirror.
        def repeat_first(item: tuple[str, Any]) -> int:
            value = item[1]
            if isinstance(value, np.ndarray) and not value.dtype.hasobject:
                token = array_token(value)
                if token in self._cached_tokens or token in self._seen_tokens:
                    return 0
            return 1

        for name, value in sorted(operands.items(), key=repeat_first):
            try:
                if isinstance(value, SparseFormat):
                    descriptor, pattern_controls = self._encode_pattern(value)
                    controls.extend(pattern_controls)
                elif isinstance(value, np.ndarray):
                    descriptor, release_to, ring_bytes = self._encode_array(
                        value, should_abort, release_to, budget
                    )
                    budget -= ring_bytes
                else:
                    descriptor = ("inline", pickle.dumps(value))
            except (pickle.PicklingError, TypeError, AttributeError):
                descriptor = ("bad", repr(value))
            encoded[name] = descriptor
        envelope = RequestEnvelope(
            request_id=request_id,
            expression=expression,
            operands=encoded,
            release_to=release_to,
            attempt=attempt,
        )
        return envelope, controls


class OperandDecoder:
    """Worker-side decoder mirroring :class:`OperandEncoder`'s caches."""

    def __init__(self, ring: ShmRing):
        self.ring = ring
        self._patterns: OrderedDict[tuple, SparseFormat] = OrderedDict()
        self._arrays: OrderedDict[int, np.ndarray] = OrderedDict()

    def store_pattern(self, key: tuple, payload: bytes) -> None:
        """Handle a ``("pattern", key, payload)`` broadcast."""
        fmt = pickle.loads(payload)
        # The parent-side fingerprint memo (identity tokens of the
        # *parent's* arrays) must not leak into this process, where the
        # same token values may name unrelated arrays.
        fmt.__dict__.pop("_fingerprint_memo", None)
        self._patterns[key] = fmt
        while len(self._patterns) > PATTERN_CACHE_SIZE:
            self._patterns.popitem(last=False)

    def _from_ring(self, offset: int, nbytes: int, dtype: str, shape: tuple) -> np.ndarray:
        buffer = self.ring.read(offset, nbytes)
        return np.frombuffer(buffer, dtype=np.dtype(dtype)).reshape(shape)

    def decode(self, envelope: RequestEnvelope) -> dict[str, Any]:
        """Materialise the envelope's operands and release its ring space.

        Every descriptor is processed even when an earlier one fails:
        the parent mirrors this decoder's caches from the descriptor
        stream alone, so skipping a ``ring_store`` because an unrelated
        operand was bad would silently desynchronise the mirror and
        poison every later ``("cached", token)`` reference.  The first
        failure is re-raised only after the whole envelope is applied.
        """
        operands: dict[str, Any] = {}
        error: Exception | None = None
        try:
            for name, descriptor in envelope.operands.items():
                try:
                    operands[name] = self._decode_one(name, descriptor)
                except Exception as exc:  # noqa: BLE001 — surfaces as a request error
                    error = error or exc
        finally:
            self.ring.release(envelope.release_to)
        if error is not None:
            raise error
        return operands

    def _decode_one(self, name: str, descriptor: tuple) -> Any:
        """Decode a single operand descriptor, applying its cache effects."""
        kind = descriptor[0]
        if kind == "ring":
            return self._from_ring(*descriptor[1:])
        if kind == "ring_store":
            array = self._from_ring(*descriptor[1:5])
            self._arrays[descriptor[5]] = array
            while len(self._arrays) > ARRAY_CACHE_SIZE:
                self._arrays.popitem(last=False)
            return array
        if kind == "cached":
            self._arrays.move_to_end(descriptor[1])
            return self._arrays[descriptor[1]]
        if kind == "pattern":
            self._patterns.move_to_end(descriptor[1])
            return self._patterns[descriptor[1]]
        if kind == "inline":
            return pickle.loads(descriptor[1])
        raise TypeError(f"operand {name!r} could not be encoded: {descriptor[1]}")


# -- results ----------------------------------------------------------------
def encode_result(
    ring: ShmRing, array: Any, should_abort: Callable[[], bool] | None = None
) -> tuple[tuple, int]:
    """Encode one result array into the response ring.

    Returns ``(descriptor, release_to)``; non-array or oversized results
    fall back to inline pickling (``release_to`` stays 0).
    """
    if isinstance(array, np.ndarray):
        payload = transport_payload(array)
        if payload is not None and payload.nbytes <= ring.max_payload:
            offset, release_to = ring.write(payload, should_abort=should_abort)
            return ("ring", offset, payload.nbytes, payload.dtype.str, payload.shape), release_to
    return ("inline", pickle.dumps(array)), 0


def decode_result(ring: ShmRing, descriptor: tuple) -> Any:
    """Decode a result descriptor produced by :func:`encode_result`."""
    if descriptor[0] == "ring":
        _, offset, nbytes, dtype, shape = descriptor
        buffer = ring.read(offset, nbytes)
        return np.frombuffer(buffer, dtype=np.dtype(dtype)).reshape(shape)
    return pickle.loads(descriptor[1])


def portable_error(error: BaseException) -> BaseException:
    """An exception safe to ship across the process boundary.

    Exceptions that do not survive a pickle round-trip are replaced by a
    ``RuntimeError`` carrying their repr.
    """
    try:
        pickle.loads(pickle.dumps(error))
        return error
    except Exception:  # noqa: BLE001 — any pickling failure takes the fallback
        return RuntimeError(f"worker-side error (not picklable): {error!r}")
