"""Identity fingerprints and the per-operand derived-index cache.

A format instance's metadata arrays (coordinates, pointers, group maps) are
built once and referenced by thousands of requests, so what the executor
derives from them — scatter sort orders, run boundaries — is value-stable for
the object's lifetime and memoized here:

* :func:`array_token` — a process-unique token for a *live* ndarray
  object.  Tokens are handed out once per object and guarded by a weak
  reference, so a token can never silently alias a different array that
  happens to reuse the same memory address after garbage collection.
* :func:`derived` — memoize an arbitrary artefact computed from an array
  (e.g. a :class:`~repro.engine.segment.ScatterPlan`), keyed by the
  array's token plus a tag.  Artefacts die with the array and are LRU
  bounded.
* :func:`pattern_fingerprint` — a hashable fingerprint of a sparse
  format's *pattern*: its class, logical shape, and the tokens of its
  metadata arrays (values excluded).  Two operands share a fingerprint
  exactly when they share the same live metadata objects, which is the
  cheap sufficient condition the server's request coalescing needs.

The single caveat of identity keying: mutating a metadata array **in
place** after it has been fingerprinted is not detected.  Formats in this
package never do that, and the public constructors copy defensively.
"""

from __future__ import annotations

import itertools
import threading
import weakref
from collections import OrderedDict
from typing import Any, Callable, Hashable

import numpy as np

#: Bound on memoized derived artefacts (LRU beyond this).
_MAX_ARTIFACTS = 4096

_LOCK = threading.RLock()
_TOKENS: dict[int, tuple[weakref.ref, int]] = {}
_SERIAL = itertools.count(1)
_ARTIFACTS: OrderedDict[tuple, Any] = OrderedDict()
#: Tags memoized under each token, so retiring a token touches only its
#: own artefacts instead of scanning the whole cache.  Releasing an artefact
#: can drop the last reference to another tracked array, whose eviction
#: callback then re-enters under the ``RLock`` and removes keys of its own:
#: every removal below is a ``pop(..., None)``.
_TAGS: dict[int, set] = {}


def array_token(array: np.ndarray) -> int:
    """A process-unique identity token for a live ndarray object.

    The token is stable for the object's lifetime and never reused for a
    different array: the registry holds a weak reference, and when the
    array is garbage collected the token is retired together with every
    artefact derived under it.
    """
    key = id(array)
    with _LOCK:
        entry = _TOKENS.get(key)
        if entry is not None:
            ref, serial = entry
            if ref() is array:
                return serial
        serial = next(_SERIAL)

        def _evict(_ref: weakref.ref, key: int = key, serial: int = serial) -> None:
            with _LOCK:
                current = _TOKENS.get(key)
                if current is not None and current[1] == serial:
                    del _TOKENS[key]
                for tag in _TAGS.pop(serial, ()):
                    _ARTIFACTS.pop((serial, tag), None)

        _TOKENS[key] = (weakref.ref(array, _evict), serial)
        return serial


def derived(array: np.ndarray, tag: Hashable, builder: Callable[[], Any]) -> Any:
    """Memoize ``builder()`` under ``(array identity, tag)``.

    The first call for a given live array object and tag runs ``builder``
    and caches its result; later calls return the cached artefact without
    touching the array.  Artefacts are evicted LRU beyond the cache bound
    and eagerly when their array is garbage collected — so an artefact must
    not hold the array or a view of it, or the cache itself keeps the array
    alive and only the LRU bound ever releases the pair.

    Parameters
    ----------
    array:
        The array the artefact is derived from (identity-keyed).
    tag:
        Hashable discriminator for the kind of artefact (include any
        parameters the builder depends on, e.g. a chunk window).
    builder:
        Zero-argument callable producing the artefact.
    """
    token = array_token(array)
    key = (token, tag)
    with _LOCK:
        if key in _ARTIFACTS:
            _ARTIFACTS.move_to_end(key)
            return _ARTIFACTS[key]
    value = builder()
    with _LOCK:
        existing = _ARTIFACTS.get(key)
        if existing is not None:
            return existing
        _ARTIFACTS[key] = value
        _TAGS.setdefault(token, set()).add(tag)
        while len(_ARTIFACTS) > _MAX_ARTIFACTS:
            oldest = next(iter(_ARTIFACTS))
            _TAGS.get(oldest[0], set()).discard(oldest[1])
            _ARTIFACTS.pop(oldest, None)
    return value


def clear_derived_cache() -> None:
    """Drop every memoized artefact (tests and benchmarks)."""
    with _LOCK:
        _ARTIFACTS.clear()
        _TAGS.clear()


def derived_cache_size() -> int:
    """Number of derived artefacts currently memoized across all arrays."""
    with _LOCK:
        return len(_ARTIFACTS)


def pattern_fingerprint(fmt: Any) -> tuple:
    """Identity fingerprint of a sparse format's *pattern* (not its values).

    The fingerprint combines the format class, the logical shape, the
    value array's shape and dtype, and the :func:`array_token` of every
    metadata tensor.  Two format instances share a fingerprint exactly
    when they reference the same live metadata arrays — the sufficient
    condition for same-pattern request coalescing and for skipping
    repeated scatter planning on the serving path.

    Parameters
    ----------
    fmt:
        Any :class:`~repro.formats.base.SparseFormat` instance; its
        ``tensors("_")`` mapping supplies the arrays, with the ``_V``
        entry treated as the value array.
    """
    tensors = fmt.tensors("_")
    values = tensors.pop("_V", None)
    meta = tuple(
        (name, array_token(np.asarray(array))) for name, array in sorted(tensors.items())
    )
    value_sig = (
        (tuple(np.shape(values)), np.asarray(values).dtype.str) if values is not None else None
    )
    return (type(fmt).__name__, tuple(fmt.shape), value_sig, meta)
