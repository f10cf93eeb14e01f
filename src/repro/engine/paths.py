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

import functools

import numpy as np


@functools.lru_cache(maxsize=4096)
def _path(equation: str, shapes: tuple[tuple[int, ...], ...]) -> list:
    """The path over operands of ``shapes``.  A serving process sees a small,
    recurring set: the bound (least recently used out) is a leak guard."""
    operands = (np.broadcast_to(np.float64(0), shape) for shape in shapes)
    return np.einsum_path(equation, *operands, optimize="optimal")[0]


def path_cache_stats() -> tuple[int, int]:
    """``(hits, misses)`` counters of the process-wide path cache."""
    info = _path.cache_info()
    return info.hits, info.misses


def clear_path_cache() -> None:
    """Drop all memoized contraction paths (tests and benchmarks)."""
    _path.cache_clear()


def cached_einsum_path(equation: str, *operands: np.ndarray) -> list:
    """The contraction path for ``np.einsum(equation, *operands)``, memoized.

    The key is the equation plus every operand's shape, which is exactly
    what ``np.einsum_path`` depends on.  The returned value is the path
    list accepted by ``np.einsum(..., optimize=path)``.
    """
    return _path(equation, tuple(np.shape(op) for op in operands))
