"""Shared-memory ring buffers: the cluster's zero-pickle bulk transport.

Every parent/worker pair owns two :class:`ShmRing` segments — one for
request payloads (parent writes, worker reads) and one for response
payloads (worker writes, parent reads).  Dense operand and result arrays
travel through these rings as raw bytes; only the small *envelope*
describing each request (expression string, operand descriptors, ring
offsets) is pickled through the pair's ``multiprocessing`` pipe.  For the
serving workloads this package targets, that removes the dominant IPC cost: a
``(256, 16)`` float64 operand is one 32 KiB ``memcpy`` into the segment
instead of a pickle round-trip through a pipe.

Design: a single-producer / single-consumer byte ring.

* The segment starts with a small header of three fields, each written by
  exactly one side: ``write_cursor`` (producer), ``read_cursor``
  (consumer), and ``heartbeat`` (worker liveness stamp, see
  :class:`~repro.cluster.server.ClusterServer`).  Cursors increase
  monotonically; free space is ``capacity - (write - read)``.
* Payloads are contiguous: a write that would straddle the wrap point
  pads to the end of the data region first.  Each write returns the
  absolute data offset plus a ``release_to`` cursor; the consumer copies
  the bytes out and then stores ``release_to`` into ``read_cursor``,
  which frees the space (padding included) in FIFO order.
* Aligned 8-byte header accesses are single loads/stores on every
  platform CPython supports, and each field has exactly one writer, so
  the ring needs no cross-process lock; a producer that finds the ring
  full polls with a short sleep (requests are small and drain quickly).

Segments are created by the parent (which is the only side that ever
unlinks them) and attached by workers *without* resource tracking — the
default tracker would double-register the segment in every worker and
spuriously unlink or warn at worker exit.
"""

from __future__ import annotations

import struct
import time
from multiprocessing import shared_memory

#: Header layout: write_cursor (u64), read_cursor (u64), heartbeat (f64).
_HEADER = struct.Struct("<QQd")
HEADER_BYTES = 64  # padded so the data region starts cache-line aligned


def _open_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without resource-tracker registration.

    On Python >= 3.13 this is the ``track=False`` parameter.  Earlier
    versions always register the attachment, which is wrong for a
    non-owning side: under the fork start method parent and workers share
    one tracker process, so a worker unregistering after attach would
    erase the *owner's* registration (and a worker not unregistering
    leaks a tracker entry per attach).  Suppressing registration for the
    duration of the attach sidesteps both.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        from multiprocessing import resource_tracker

        original = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


class RingAborted(RuntimeError):
    """Raised when a blocking ring operation is abandoned by its caller.

    The producer's ``should_abort`` callback returned True — typically
    because the peer process died while the ring was full.
    """


class ShmRing:
    """A single-producer single-consumer shared-memory byte ring.

    Parameters
    ----------
    shm:
        The attached :class:`multiprocessing.shared_memory.SharedMemory`
        segment backing the ring.
    owner:
        True in the process that created (and will unlink) the segment.
    """

    def __init__(self, shm: shared_memory.SharedMemory, owner: bool):
        self._shm = shm
        self._owner = owner
        self._closed = False
        self.capacity = shm.size - HEADER_BYTES
        if self.capacity <= 0:
            raise ValueError(f"segment too small for a ring: {shm.size} bytes")
        #: Largest accepted payload.  Writes are contiguous, so a payload
        #: must fit together with its worst-case wrap padding:
        #: ``pad + n <= (capacity - pos) + n`` is only guaranteed
        #: satisfiable for ``n <= capacity // 2`` (a larger payload can
        #: wedge the producer forever when the cursor sits mid-ring).
        #: Callers fall back to inline pickling above this bound.
        self.max_payload = self.capacity // 2

    # -- construction -------------------------------------------------------
    @classmethod
    def create(cls, name: str, capacity: int) -> "ShmRing":
        """Create (and own) a new ring segment with ``capacity`` data bytes."""
        shm = shared_memory.SharedMemory(name=name, create=True, size=HEADER_BYTES + capacity)
        shm.buf[:HEADER_BYTES] = b"\x00" * HEADER_BYTES
        return cls(shm, owner=True)

    @classmethod
    def attach(cls, name: str) -> "ShmRing":
        """Attach to an existing ring segment without resource tracking.

        Workers use this: the segment's lifetime belongs to the parent,
        so the worker-side ``resource_tracker`` must not adopt it (it
        would emit leak warnings — or on some versions unlink the segment
        — when the worker exits).
        """
        return cls(_open_untracked(name), owner=False)

    @property
    def name(self) -> str:
        """The segment's name in the shared-memory namespace."""
        return self._shm.name

    # -- header fields ------------------------------------------------------
    def _load(self) -> tuple[int, int, float]:
        return _HEADER.unpack_from(self._shm.buf, 0)

    @property
    def write_cursor(self) -> int:
        """Producer-owned monotonic cursor (bytes ever written, pads included)."""
        return self._load()[0]

    @property
    def read_cursor(self) -> int:
        """Consumer-owned monotonic cursor (bytes ever released)."""
        return self._load()[1]

    def _store_write_cursor(self, value: int) -> None:
        struct.pack_into("<Q", self._shm.buf, 0, value)

    def _store_read_cursor(self, value: int) -> None:
        struct.pack_into("<Q", self._shm.buf, 8, value)

    @property
    def free_bytes(self) -> int:
        """Bytes currently available to the producer."""
        write, read, _ = self._load()
        return self.capacity - (write - read)

    @property
    def used_bytes(self) -> int:
        """Bytes currently in flight (written but not yet released)."""
        write, read, _ = self._load()
        return write - read

    # -- heartbeat ----------------------------------------------------------
    def beat(self) -> None:
        """Stamp the heartbeat field with the current wall-clock time."""
        struct.pack_into("<d", self._shm.buf, 16, time.time())

    @property
    def heartbeat(self) -> float:
        """Last heartbeat stamp (0.0 until the worker's first beat)."""
        return self._load()[2]

    # -- producer side ------------------------------------------------------
    def write(
        self,
        data,
        timeout: float | None = None,
        should_abort=None,
    ) -> tuple[int, int]:
        """Copy ``data`` into the ring, blocking while it is full.

        Parameters
        ----------
        data:
            Bytes-like payload (at most :attr:`max_payload` bytes).
        timeout:
            Seconds to wait for space before raising ``TimeoutError``.
        should_abort:
            Zero-argument callable polled while waiting; returning True
            raises :class:`RingAborted` (e.g. the consumer died).

        Returns
        -------
        (offset, release_to):
            ``offset`` is the absolute data-region offset of the payload;
            ``release_to`` is the cursor value the consumer must store
            into ``read_cursor`` after consuming it.
        """
        view = memoryview(data).cast("B")
        n = view.nbytes
        if n > self.max_payload:
            raise ValueError(
                f"payload of {n} bytes exceeds the ring's max payload "
                f"{self.max_payload} (capacity {self.capacity}); "
                "transport it inline instead"
            )
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            write, read, _ = self._load()
            pos = write % self.capacity
            pad = self.capacity - pos if pos + n > self.capacity else 0
            if self.capacity - (write - read) >= pad + n:
                break
            if should_abort is not None and should_abort():
                raise RingAborted("ring consumer is gone")
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError(f"no ring space for {n} bytes within the timeout")
            time.sleep(0.0002)
        offset = 0 if pad else pos
        start = HEADER_BYTES + offset
        self._shm.buf[start : start + n] = view
        release_to = write + pad + n
        self._store_write_cursor(release_to)
        return offset, release_to

    # -- consumer side ------------------------------------------------------
    def read(self, offset: int, nbytes: int) -> bytearray:
        """Copy ``nbytes`` out of the data region at ``offset``.

        The copy is what lets the consumer immediately :meth:`release`
        the space while keeping the payload alive.  A ``bytearray`` is
        returned (rather than ``bytes``) so ``np.frombuffer`` over it
        yields a *writable* array without a second copy — operands such
        as accumulation outputs are mutated by the executor.
        """
        start = HEADER_BYTES + offset
        return bytearray(self._shm.buf[start : start + nbytes])

    def release(self, release_to: int) -> None:
        """Free ring space up to ``release_to`` (from the matching write)."""
        if release_to > self.read_cursor:
            self._store_read_cursor(release_to)

    # -- lifecycle ----------------------------------------------------------
    def close(self) -> None:
        """Detach from the segment; the owner also unlinks it."""
        if self._closed:
            return
        self._closed = True
        self._shm.close()
        if self._owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:
                pass

    def __enter__(self) -> "ShmRing":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def segment_exists(name: str) -> bool:
    """Whether a shared-memory segment with ``name`` is still linked."""
    try:
        probe = _open_untracked(name)
    except FileNotFoundError:
        return False
    probe.close()
    return True
