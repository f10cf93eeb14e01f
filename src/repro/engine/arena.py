"""A tiny per-operator buffer arena for allocation-light execution.

Each :class:`~repro.engine.specialize.SpecializedKernel` owns one arena.
The kernel's temporaries — the contraction partial of each chunk, the
moved/flattened scatter sources — have shapes that repeat exactly across
calls, so the arena hands back the same buffers run after run instead of
allocating fresh ones.

Buffers are keyed per thread: compiled kernels are shared through the
process-wide plan cache and may execute concurrently (the server's
workers), so each thread reuses its own buffer set and no locking is
needed on the hot path.
"""

from __future__ import annotations

import threading
from typing import Hashable

import numpy as np


class BufferArena:
    """Reusable scratch buffers keyed by ``(tag, shape, dtype)`` per thread.

    ``get`` returns an *uninitialised* buffer — callers must fully
    overwrite it (e.g. via ``np.einsum(..., out=buffer)``) before reading.
    A buffer is reused only when the same thread requests the same tag
    with the same shape and dtype again, which is exactly the
    steady-state of a compiled kernel serving one signature.
    """

    def __init__(self) -> None:
        self._local = threading.local()

    def _buffers(self) -> dict:
        buffers = getattr(self._local, "buffers", None)
        if buffers is None:
            buffers = {}
            self._local.buffers = buffers
        return buffers

    def get(self, tag: Hashable, shape: tuple[int, ...], dtype: np.dtype) -> np.ndarray:
        """A scratch buffer of the given shape/dtype, reused across calls.

        Parameters
        ----------
        tag:
            Stable identifier for the buffer's role in the kernel (e.g.
            ``"partial"``); one live buffer exists per tag per thread.
        shape:
            Required buffer shape; a cached buffer with a different shape
            is replaced.
        dtype:
            Required element type; mismatches also trigger replacement.
        """
        buffers = self._buffers()
        buffer = buffers.get(tag)
        if buffer is None or buffer.shape != tuple(shape) or buffer.dtype != np.dtype(dtype):
            buffer = np.empty(tuple(shape), dtype=dtype)
            buffers[tag] = buffer
        return buffer

    def clear(self) -> None:
        """Drop this thread's cached buffers."""
        self._buffers().clear()
