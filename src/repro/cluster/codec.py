"""The operand codec: what is cached where, on every transport.

An operand crosses a process or network boundary as one JSON-safe
*descriptor*.  The two halves of a boundary (:class:`MirrorEncoder`,
:class:`MirrorDecoder`) apply the same cache updates to the same
descriptor stream, so the sender's mirror of the receiver's caches
cannot diverge:

* ``["blob", offset, nbytes, dtype, shape]`` — a dense array as raw
  bytes; ``["blob_store", ..., token]`` the same, cached under ``token``;
  ``["cached", token]`` a cached array, zero bytes moved.  An array
  sighted before (by identity token) is *stable* — typically the index
  tensors of a raw indirect Einsum: its second sighting stores it, later
  ones are references, gated on a crc32 of the content so a buffer
  refilled in place re-ships and refreshes the stale entry.
* ``["pattern_store", key, record]`` / ``["pattern", key]`` — **a sparse
  operand is its named arrays**: the record is the format name plus
  every constructor argument (``shape``, ``block_shape``, ``nnz``, each
  array a descriptor of its own; a ``StackedSparse`` is its base's
  record plus ``data``).  The receiver rebuilds it with the format's
  validating constructor and keeps *one live instance* per key, so
  identity-fingerprint caches and coalescing keys stay hot behind the
  boundary.  The key covers the value array's identity: fresh values
  over old metadata re-ship, and then only the values move — the
  metadata arrays have become stable.
* ``["inline", payload]`` — scalars, arrays under :data:`INLINE_BYTES`,
  and whatever the framing cannot carry raw.

A transport is a :class:`Framing`: where raw bytes go and how inline
values are written.  The shared-memory ring's is here; the gateway's
RGW1 frame and JSON encoding are in :mod:`repro.gateway.wire`.  The
decoder trusts nothing: arity, element types, dtype and sizes are
checked before use, a violation is a :class:`~repro.errors.WireFormatError`.

**What is still pickled, and why.**  Only the ring framing pickles, and
only its inline payloads (scalars, arrays too small or too large for the
ring) and exceptions — inside the ``multiprocessing`` pipe between a
parent and each worker it spawned, whose ``Connection.send`` pickles the
small envelope anyway.
No byte that arrived over HTTP reaches ``pickle.loads``.

Ring writes are budgeted **per request**: a request's ring space is
released only once its envelope arrives, so all its ring-borne arrays
are resident at once, and one larger than the ring's ``max_payload``
would block the dispatcher forever — past that bound the remaining
arrays ride inline.  Encoding never fails a ring request: an operand
outside the domain becomes ``["bad", repr]``, that request's error.
"""

from __future__ import annotations

import inspect
import itertools
import math
import pickle
import re
import zlib
from collections import OrderedDict
from typing import Any, Callable, Iterable, Protocol

import numpy as np

from repro.cluster.messages import RequestEnvelope
from repro.cluster.shm import ShmRing
from repro.engine.fingerprint import array_token
from repro.errors import ReproError, WireFormatError
from repro.formats import FORMATS
from repro.formats.base import SparseFormat
from repro.runtime.stacked import StackedSparse

#: Arrays smaller than this ride inline — a raw-byte round trip plus a
#: descriptor costs more than a few dozen inline bytes.
INLINE_BYTES = 128

#: Receiver-side cache entries (LRU beyond these).  Both halves apply
#: identical updates per descriptor, so an evicted entry is evicted on
#: both sides and simply re-ships on next use.
ARRAY_CACHE_SIZE = 256
PATTERN_CACHE_SIZE = 512

#: Scalar operands of the domain (arrays and sparse formats aside).
SCALARS = (bool, int, float, str, type(None), np.bool_, np.integer, np.floating)

_CLASSES: dict[str, type] = {**FORMATS, "stackedsparse": StackedSparse}
_NAMES = {cls: name for name, cls in _CLASSES.items()}
#: A record's fields: the constructor's parameters, which every format
#: also exposes as attributes of the same names.
_FIELDS = {cls: tuple(inspect.signature(cls).parameters) for cls in _NAMES}
_DTYPE = re.compile(r"[<>|=]?[biufc]\d{1,2}")
_DTYPES: dict[str, np.dtype] = {}


class Framing(Protocol):
    """What a transport supplies: a place for raw bytes, a form for small values."""

    max_payload: float  #: arrays over this many bytes are never offered to ``put``
    put: Callable[[np.ndarray], int | None]  #: place the bytes: their offset, or None = inline
    get: Callable[[int, int], Any]  #: the bounds-checked read of (offset, nbytes)
    inline: Callable[[Any], Any]  #: a small value as an inline payload ...
    outline: Callable[[Any], Any]  #: ... and back


def apply_all(function: Callable[..., Any], items: Iterable, *args: Any) -> list:
    """``[function(item, *args) for item in items]``, raising only after every call.

    The sender mirrors the receiver's caches from the descriptor stream
    alone, so a failing operand must not skip its neighbours' cache
    effects: every item is processed, then the first failure re-raised.
    """
    results, error = [], None
    for item in items:
        try:
            results.append(function(item, *args))
        except Exception as exc:  # noqa: BLE001 — re-raised below
            error = error or exc
    if error is not None:
        raise error
    return results


def operand_kind(value: Any) -> str:
    """``"sparse"``, ``"dense"`` or ``"scalar"`` — the one operand domain.

    Anything else (object or non-numeric dtypes, unknown types) raises at
    *encode*, on every transport: nothing a sender accepts is refused
    behind it.
    """
    if isinstance(value, np.ndarray):
        if value.dtype.kind not in "biufc":
            raise WireFormatError(f"{value.dtype} arrays are outside the operand domain")
        return "dense"
    if isinstance(value, SparseFormat):
        return "sparse"
    if isinstance(value, SCALARS):
        return "scalar"
    raise WireFormatError(f"operands of type {type(value).__name__} are outside the domain")


def content_checksum(payload: np.ndarray) -> int:
    """Content checksum guarding the identity caches against in-place
    mutation.  crc32 over adler32: same C-speed, but no linear structure
    — adler32 is two byte *sums*, which realistic metadata edits (e.g.
    compensating increments 65521 elements apart) can leave unchanged.
    """
    return zlib.crc32(payload.data.cast("B"))


def pattern_key(fmt: SparseFormat) -> tuple:
    """The cache identity of a sparse operand: the fingerprint (its metadata
    arrays' identity) plus the value array's token, so fresh values over
    old metadata re-ship instead of being served stale."""
    return (fmt.fingerprint(), array_token(fmt.tensors("_")["_V"]))


# -- one array, no cache ------------------------------------------------------
def parse_dtype(text: Any) -> np.dtype:
    """The fixed-size bool/int/uint/float/complex dtype ``text`` names."""
    dtype = _DTYPES.get(text) if isinstance(text, str) else None
    if dtype is None:
        try:
            if isinstance(text, str) and _DTYPE.fullmatch(text):
                dtype = _DTYPES[text] = np.dtype(text)  # at most the few names the pattern admits
        except (TypeError, ValueError, SyntaxError):
            pass
    if dtype is None:
        raise WireFormatError(f"unsupported dtype {text!r}")
    return dtype


def _counts(*values: Any) -> bool:
    """Whether every value is a non-negative ``int`` (a bool is not)."""
    for value in values:
        if type(value) is not int or value < 0:
            return False
    return True


def _fields(descriptor: list, count: int) -> list:
    if len(descriptor) != count + 1:
        raise WireFormatError(f"a {descriptor[0]!r} descriptor takes {count} fields")
    return descriptor[1:]


def _put(view: np.ndarray, framing: Framing) -> list | None:
    offset = framing.put(view)
    if offset is None:
        return None
    return ["blob", offset, view.nbytes, view.dtype.str, list(view.shape)]


def _read_blob(blob: list, framing: Framing) -> np.ndarray:
    """The array of ``[kind, offset, nbytes, dtype, shape]``, every field checked."""
    if len(blob) != 5:
        raise WireFormatError("a blob descriptor names offset, nbytes, dtype and shape")
    _, offset, nbytes, dtype, shape = blob
    dtype = parse_dtype(dtype)
    if type(shape) is not list or not _counts(offset, nbytes, *shape):
        raise WireFormatError("blob offset, nbytes and shape must be non-negative integers")
    if math.prod(shape) * dtype.itemsize != nbytes:
        raise WireFormatError(f"blob shape {shape!r} of {dtype} does not span {nbytes} bytes")
    return np.frombuffer(framing.get(offset, nbytes), dtype=dtype).reshape(shape)


def encode_dense(array: np.ndarray, framing: Framing) -> list:
    """A ``blob`` (or ``inline``) descriptor of one array, outside any cache."""
    operand_kind(array)
    raw = INLINE_BYTES <= array.nbytes <= framing.max_payload
    blob = _put(np.ascontiguousarray(array), framing) if raw else None
    return blob or ["inline", framing.inline(array)]


def decode_dense(descriptor: Any, framing: Framing) -> Any:
    """The value of a ``blob`` or ``inline`` descriptor, checked before use."""
    if type(descriptor) is not list or not descriptor or type(descriptor[0]) is not str:
        raise WireFormatError(f"an operand descriptor is a list naming its kind: {descriptor!r}")
    if descriptor[0] == "blob":
        return _read_blob(descriptor, framing)
    if descriptor[0] == "inline":
        return framing.outline(*_fields(descriptor, 1))
    raise WireFormatError(f"unknown descriptor kind {descriptor[0]!r}")


# -- sparse operands as records -----------------------------------------------
def sparse_record(fmt: SparseFormat, encode_array: Callable[[np.ndarray], Any]) -> dict:
    """``fmt`` as its format name plus every constructor argument."""
    fields = _FIELDS.get(type(fmt))
    if fields is None:
        raise WireFormatError(f"{type(fmt).__name__} operands are outside the operand domain")
    record: dict[str, Any] = {"format": _NAMES[type(fmt)]}
    for field in fields:
        value = getattr(fmt, field)
        if field == "base":
            record[field] = sparse_record(value, encode_array)
        elif field == "coords":
            record[field] = [encode_array(coord) for coord in value]
        elif isinstance(value, np.ndarray):
            record[field] = encode_array(value)
        else:  # shape, block_shape, nnz
            record[field] = int(value) if field == "nnz" else [int(dim) for dim in value]
    return record


def sparse_from_record(record: Any, decode_array: Callable[[Any], Any]) -> SparseFormat:
    """Rebuild a sparse operand through its format's validating constructor."""
    name = record.get("format") if isinstance(record, dict) else None
    cls = _CLASSES.get(name) if isinstance(name, str) else None
    if cls is None:
        raise WireFormatError(f"a sparse record names a known format, got {name!r}")
    fields = _FIELDS[cls]
    if set(record) != {"format", *fields}:
        raise WireFormatError(f"a {name} record has exactly the fields {list(fields)}")

    def array(descriptor: Any) -> np.ndarray:
        value = decode_array(descriptor)
        if not isinstance(value, np.ndarray):
            raise WireFormatError(f"a {name} record's arrays must be arrays")
        return np.array(value)  # the operand may outlive the message: a view would pin it

    def argument(field: str) -> Any:
        value = record[field]
        if field == "base":  # only a stacked record has one, and it may not nest
            if isinstance(value, dict) and value.get("format") == name:
                raise WireFormatError("a stacked operand's base cannot be stacked")
            return sparse_from_record(value, decode_array)
        if field == "coords":
            if not isinstance(value, list):
                raise WireFormatError("'coords' is a list of arrays")
            return apply_all(array, value)
        if field == "nnz" or field.endswith("shape"):
            counts = [value] if field == "nnz" else value
            if not isinstance(counts, list) or not _counts(*counts):
                raise WireFormatError(f"{field!r} must be non-negative integers: {value!r}")
            return value
        return array(value)

    arguments = apply_all(argument, fields)
    try:
        return cls(*arguments)
    except ReproError:
        raise  # a ShapeError/FormatError names the violated invariant itself
    except (ArithmeticError, LookupError, TypeError, ValueError) as error:
        raise WireFormatError(f"malformed {name} record: {error!r}") from None


# -- the mirror -----------------------------------------------------------------
def _remember(cache: OrderedDict, key: Any, value: Any, bound: int) -> Any:
    """Set ``cache[key]`` (a held key keeps its LRU position) and evict down to ``bound``."""
    cache[key] = value
    while len(cache) > bound:
        cache.popitem(last=False)
    return value


class MirrorEncoder:
    """The sending half: a mirror of one receiver's caches, discarded with the
    receiver (a worker incarnation, an HTTP connection) it shadows."""

    def __init__(self):
        self._serials = itertools.count(1)
        #: pattern_key -> the wire key the receiver caches the operand under.
        self._patterns_sent: OrderedDict[tuple, int] = OrderedDict()
        #: token -> content checksum of the bytes the receiver caches.
        self._cached_tokens: OrderedDict[int, int] = OrderedDict()
        #: identity tokens sighted at least once (LRU set).
        self._seen_tokens: OrderedDict[int, None] = OrderedDict()

    def repeated(self, value: Any) -> bool:
        """Whether ``value`` is an array this encoder has sighted before."""
        if not isinstance(value, np.ndarray):
            return False
        token = array_token(value)
        return token in self._cached_tokens or token in self._seen_tokens

    def encode(self, value: Any, framing: Framing) -> list:
        """One operand's descriptor, updating the mirror."""
        kind = operand_kind(value)
        if kind == "sparse":
            return self._encode_pattern(value, framing)
        if kind == "dense":
            return self._encode_array(value, framing)
        return ["inline", framing.inline(value)]

    def _encode_array(self, array: np.ndarray, framing: Framing) -> list:
        if not INLINE_BYTES <= array.nbytes <= framing.max_payload:
            return ["inline", framing.inline(array)]
        view, token = np.ascontiguousarray(array), array_token(array)
        # First sighting needs no checksum: there is nothing to compare
        # against, and fresh-per-request value tensors (new token every
        # time) would pay a full-payload crc for nothing.  From the second
        # sighting on, the checksum gates cached hits — a cached token
        # whose content changed (buffer refilled in place) re-ships as a
        # store, refreshing the receiver's stale entry.
        stable = token in self._cached_tokens or token in self._seen_tokens
        checksum = content_checksum(view) if stable else None
        if checksum is not None and self._cached_tokens.get(token) == checksum:
            self._cached_tokens.move_to_end(token)
            return ["cached", token]
        _remember(self._seen_tokens, token, None, 4 * ARRAY_CACHE_SIZE)
        self._seen_tokens.move_to_end(token)
        descriptor = _put(view, framing)
        if descriptor is None:
            # No room this time.  The sighting above still counts: a later
            # encounter with room promotes straight to the cached tier.
            return ["inline", framing.inline(array)]
        if stable:
            descriptor = ["blob_store", *descriptor[1:], token]
            _remember(self._cached_tokens, token, checksum, ARRAY_CACHE_SIZE)
        return descriptor

    def _encode_pattern(self, fmt: SparseFormat, framing: Framing) -> list:
        key = pattern_key(fmt)
        serial = self._patterns_sent.get(key)
        if serial is not None:
            self._patterns_sent.move_to_end(key)
            return ["pattern", serial]
        record = sparse_record(fmt, lambda array: self._encode_array(array, framing))
        serial = _remember(self._patterns_sent, key, next(self._serials), PATTERN_CACHE_SIZE)
        return ["pattern_store", serial, record]


class MirrorDecoder:
    """The receiving half: the caches a :class:`MirrorEncoder` mirrors."""

    def __init__(self):
        self._arrays: OrderedDict[int, np.ndarray] = OrderedDict()
        self._patterns: OrderedDict[int, SparseFormat] = OrderedDict()

    def decode(self, descriptor: Any, framing: Framing) -> Any:
        """One operand from its descriptor, applying its cache effects."""
        kind = descriptor[0] if type(descriptor) is list and descriptor else None
        if kind == "blob":
            return _read_blob(descriptor, framing)
        if kind == "pattern":
            return _recall(self._patterns, descriptor)
        if kind == "cached":
            return _recall(self._arrays, descriptor)
        if kind == "blob_store":
            *blob, key = descriptor
            array = _read_blob(blob, framing).copy()  # kept: a view would pin the message
            return _remember(self._arrays, _key(key), array, ARRAY_CACHE_SIZE)
        if kind == "pattern_store":
            key, record = _fields(descriptor, 2)
            fmt = sparse_from_record(record, lambda field: self.decode(field, framing))
            return _remember(self._patterns, _key(key), fmt, PATTERN_CACHE_SIZE)
        return decode_dense(descriptor, framing)


def _key(value: Any) -> int:
    if not _counts(value):
        raise WireFormatError(f"a cache key is a non-negative integer, got {value!r}")
    return value


def _recall(cache: OrderedDict, reference: list) -> Any:
    """The entry a ``[kind, key]`` reference names, now the most recently used."""
    key = reference[1] if len(reference) == 2 else None
    if type(key) is not int or key not in cache:
        raise WireFormatError(f"no cached entry for {reference!r} — encoder reused across connections?")
    cache.move_to_end(key)
    return cache[key]


# -- the ring framing -----------------------------------------------------------
class RingFraming:
    """Raw bytes through a :class:`ShmRing` under one request's budget; inline = pickle."""

    def __init__(self, ring: ShmRing, should_abort: Callable[[], bool] | None = None):
        self.ring = ring
        self.should_abort = should_abort
        self.max_payload = self.budget = ring.max_payload
        self.release_to = 0

    def put(self, view: np.ndarray) -> int | None:
        """Write ``view`` if the request's remaining budget covers it."""
        if view.nbytes > self.budget:
            return None
        offset, release_to = self.ring.write(view, should_abort=self.should_abort)
        self.budget -= view.nbytes
        self.release_to = max(self.release_to, release_to)
        return offset

    def get(self, offset: int, nbytes: int) -> bytearray:
        """A copy out of the ring (the space is released under the reader)."""
        return self.ring.read(offset, nbytes)

    def inline(self, value: Any) -> bytes:
        """Pickle: the payload stays inside the pipe between trusted processes."""
        return pickle.dumps(value)

    def outline(self, payload: bytes) -> Any:
        """Unpickle a payload the parent process (or its worker) wrote."""
        return pickle.loads(payload)


class OperandEncoder(MirrorEncoder):
    """Parent-side encoder for one worker incarnation."""

    def __init__(self, ring: ShmRing):
        super().__init__()
        self.ring = ring

    def encode_request(
        self,
        request_id: int,
        expression: str,
        operands: dict[str, Any],
        attempt: int,
        should_abort: Callable[[], bool] | None = None,
    ) -> RequestEnvelope:
        """Encode one request into its envelope.

        Repeated arrays are encoded first: they are the ones a ring
        write can promote to the zero-byte cached tier, while a fresh
        array pays the same riding the ring now or inline this once —
        one large fresh operand encoded first could otherwise starve a
        request's repeated metadata out of the cache on every request.
        The envelope preserves this order, keeping the worker's cache
        replay aligned with the mirror.
        """
        framing = RingFraming(self.ring, should_abort)
        encoded: dict[str, list] = {}
        for name, value in sorted(operands.items(), key=lambda item: not self.repeated(item[1])):
            try:
                encoded[name] = self.encode(value, framing)
            except WireFormatError:
                encoded[name] = ["bad", repr(value)]
        return RequestEnvelope(
            request_id, expression, encoded, release_to=framing.release_to, attempt=attempt
        )


class OperandDecoder(MirrorDecoder):
    """Worker-side decoder mirroring :class:`OperandEncoder`'s caches."""

    def __init__(self, ring: ShmRing):
        super().__init__()
        self.ring = ring

    def decode_request(self, envelope: RequestEnvelope) -> dict[str, Any]:
        """Materialise the envelope's operands and release its ring space."""
        operands = envelope.operands
        try:
            values = apply_all(self.decode, operands.values(), RingFraming(self.ring))
        except WireFormatError:
            for name, descriptor in operands.items():
                if descriptor[0] == "bad":  # the encoder's escape: this request's own error
                    message = f"operand {name!r} could not be encoded: {descriptor[1]}"
                    raise TypeError(message) from None
            raise
        finally:
            self.ring.release(envelope.release_to)
        return dict(zip(operands, values))


# -- results --------------------------------------------------------------------
def encode_result(
    ring: ShmRing, array: Any, should_abort: Callable[[], bool] | None = None
) -> tuple[list, int]:
    """Encode one result into the response ring: ``(descriptor, release_to)``."""
    framing = RingFraming(ring, should_abort)
    return encode_dense(np.asarray(array), framing), framing.release_to


def decode_result(ring: ShmRing, descriptor: list) -> Any:
    """Decode a result descriptor produced by :func:`encode_result`."""
    return decode_dense(descriptor, RingFraming(ring))


def portable_error(error: BaseException) -> BaseException:
    """``error`` if it survives a pickle round-trip across the process
    boundary, else a ``RuntimeError`` carrying its repr."""
    try:
        pickle.loads(pickle.dumps(error))
        return error
    except Exception:  # noqa: BLE001 — any pickling failure takes the fallback
        return RuntimeError(f"worker-side error (not picklable): {error!r}")
