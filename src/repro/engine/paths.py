"""Process-wide memo of ``np.einsum`` contraction paths.

``np.einsum(..., optimize=True)`` re-runs the contraction-path search on
*every* call — for the small kernels the serving runtime executes, the
search routinely costs more than the contraction itself.  The path depends
only on the equation and the operand shapes, so the engine resolves it once
per ``(equation, shapes)`` pair and passes the explicit path to every later
call.

:func:`cached_einsum_path` is the lookup; the executor
(:mod:`repro.engine.specialize`) calls it at build time only, for a
contraction it cannot lower to folds plus one ``np.matmul``.
"""

from __future__ import annotations

import threading

import numpy as np

#: Hard bound on distinct (equation, shapes) entries; a serving process
#: sees a small, recurring set, so this is a leak guard, not a tuning knob.
_MAX_ENTRIES = 4096

_PATHS: dict[tuple, list] = {}
_LOCK = threading.Lock()
_HITS = 0
_MISSES = 0


def path_cache_stats() -> tuple[int, int]:
    """``(hits, misses)`` counters of the process-wide path cache."""
    with _LOCK:
        return _HITS, _MISSES


def clear_path_cache() -> None:
    """Drop all memoized contraction paths (tests and benchmarks)."""
    global _HITS, _MISSES
    with _LOCK:
        _PATHS.clear()
        _HITS = _MISSES = 0


def cached_einsum_path(equation: str, *operands: np.ndarray) -> list:
    """The contraction path for ``np.einsum(equation, *operands)``, memoized.

    The key is the equation plus every operand's shape, which is exactly
    what ``np.einsum_path`` depends on.  The returned value is the path
    list accepted by ``np.einsum(..., optimize=path)``.
    """
    global _HITS, _MISSES
    key = (equation, tuple(np.shape(op) for op in operands))
    with _LOCK:
        path = _PATHS.get(key)
        if path is not None:
            _HITS += 1
            return path
        _MISSES += 1
    computed = np.einsum_path(equation, *operands, optimize="optimal")[0]
    with _LOCK:
        if len(_PATHS) >= _MAX_ENTRIES:
            _PATHS.clear()
        _PATHS.setdefault(key, computed)
        return _PATHS[key]
