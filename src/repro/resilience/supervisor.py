"""Crash-loop supervision: restart budgets and the poison quarantine.

PRs 4–7 restart a crashed worker unconditionally, which turns a
deterministically-crashing workload (a poison request, a broken
executor, an OOM loop) into an infinite fork/kill cycle that burns CPU
and masks the failure.  This module bounds both halves of the loop:

* :class:`WorkerSupervisor` gives each worker *slot* a restart budget —
  a token bucket that refills at ``budget / window`` tokens per second —
  plus exponential backoff between consecutive restarts.  A slot that
  drains its bucket is **permanently dead** for the life of the server:
  the router drops it from sticky sets, ``/v1/healthz`` reports degraded,
  and (with failover configured) the session routes around the tier.
* :class:`PoisonQuarantine` remembers the request keys that crashed a
  worker through *all* of their dispatch attempts, so resubmitting the
  same poison fails fast with
  :class:`~repro.errors.PoisonedRequestError` instead of re-killing
  workers and draining restart budgets.

Both classes are pure state machines over an injected clock — every
method takes ``now`` — so unit tests need no sleeps and no threads.
"""

from __future__ import annotations

import hashlib
import time
from collections import OrderedDict

import numpy as np

__all__ = ["PoisonQuarantine", "WorkerSupervisor", "poison_key"]


class WorkerSupervisor:
    """Per-slot restart budgets with exponential backoff.

    Each worker slot owns a token bucket holding at most ``budget``
    tokens, refilling continuously at ``budget / window`` tokens per
    second; a restart spends one token.  An empty bucket marks the slot
    dead — permanently, because a slot that crashed ``budget`` times in
    one window is in a crash loop no further restart will fix.  Between
    granted restarts the supervisor also imposes exponential backoff
    (``backoff_base * 2**(consecutive-1)``, capped) so a fast crash loop
    spends its budget over seconds rather than milliseconds; a worker
    that stays up past the backoff cap resets the consecutive count.

    Parameters
    ----------
    budget:
        Tokens per slot; ``0`` means a slot dies on its first crash.
    window:
        Seconds over which a full budget refills.
    backoff_base:
        First backoff delay (seconds); doubles per consecutive crash.
    backoff_cap:
        Upper bound on the backoff delay, and the stable-uptime
        threshold past which the crash streak resets.
    """

    def __init__(
        self,
        budget: int = 8,
        window: float = 60.0,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
    ):
        if budget < 0:
            raise ValueError(f"budget must be >= 0, got {budget}")
        if window <= 0:
            raise ValueError(f"window must be > 0, got {window}")
        self.budget = budget
        self.window = window
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self._tokens: dict[int, float] = {}
        self._refilled_at: dict[int, float] = {}
        self._streak: dict[int, int] = {}
        self._last_crash: dict[int, float] = {}
        self._dead: set[int] = set()
        self._restarts: dict[int, int] = {}

    def _refill(self, worker_id: int, now: float) -> float:
        if worker_id not in self._tokens:
            self._tokens[worker_id] = float(self.budget)
            self._refilled_at[worker_id] = now
        elapsed = max(0.0, now - self._refilled_at[worker_id])
        rate = self.budget / self.window
        self._tokens[worker_id] = min(
            float(self.budget), self._tokens[worker_id] + elapsed * rate
        )
        self._refilled_at[worker_id] = now
        return self._tokens[worker_id]

    def decide(self, worker_id: int, now: float | None = None) -> str:
        """Rule on one crash: ``"restart"``, ``"defer"``, or ``"exhausted"``.

        ``"restart"`` spends a token and should be acted on immediately;
        ``"defer"`` means the backoff delay has not elapsed yet (ask
        again after :meth:`backoff_remaining`); ``"exhausted"`` marks the
        slot permanently dead.

        Parameters
        ----------
        worker_id:
            The crashed worker's slot id.
        now:
            Clock reading (defaults to ``time.time()``); inject for tests.
        """
        now = time.time() if now is None else now
        if worker_id in self._dead:
            return "exhausted"
        last = self._last_crash.get(worker_id)
        streak = self._streak.get(worker_id, 0)
        if last is not None and streak > 0:
            if now - last >= self.backoff_cap:
                # Stable uptime since the previous crash: streak over.
                streak = 0
            else:
                backoff = min(
                    self.backoff_cap, self.backoff_base * (2 ** (streak - 1))
                )
                if now - last < backoff:
                    return "defer"
        if self._refill(worker_id, now) < 1.0:
            self._dead.add(worker_id)
            return "exhausted"
        self._tokens[worker_id] -= 1.0
        self._streak[worker_id] = streak + 1
        self._last_crash[worker_id] = now
        self._restarts[worker_id] = self._restarts.get(worker_id, 0) + 1
        return "restart"

    def backoff_remaining(self, worker_id: int, now: float | None = None) -> float:
        """Seconds until a deferred slot's backoff elapses (0 when ready).

        Parameters
        ----------
        worker_id:
            The deferred worker's slot id.
        now:
            Clock reading (defaults to ``time.time()``).
        """
        now = time.time() if now is None else now
        last = self._last_crash.get(worker_id)
        streak = self._streak.get(worker_id, 0)
        if last is None or streak == 0 or worker_id in self._dead:
            return 0.0
        backoff = min(self.backoff_cap, self.backoff_base * (2 ** (streak - 1)))
        return max(0.0, backoff - (now - last))

    def mark_dead(self, worker_id: int) -> None:
        """Force a slot dead (used when a restart attempt itself fails).

        Parameters
        ----------
        worker_id:
            The slot to retire permanently.
        """
        self._dead.add(worker_id)

    def is_dead(self, worker_id: int) -> bool:
        """True when the slot's budget is exhausted (death is permanent)."""
        return worker_id in self._dead

    @property
    def dead_workers(self) -> tuple[int, ...]:
        """Sorted slot ids that exhausted their restart budget."""
        return tuple(sorted(self._dead))

    def stats(self) -> dict:
        """Restart counts and dead slots, for ``health()``/``/v1/statsz``."""
        return {
            "restarts": dict(self._restarts),
            "dead_workers": list(self.dead_workers),
        }


def poison_key(expression: str, operands: dict) -> str:
    """A stable fingerprint of one request's expression and operands.

    Two requests share a key when they would exercise the worker the
    same way: same expression, same operand names, shapes, dtypes, and
    a content digest over each array's bytes.  Hashing content (not
    identity) makes the quarantine survive the caller rebuilding the
    same arrays.

    Parameters
    ----------
    expression:
        The indirect-Einsum expression string.
    operands:
        Mapping of operand name to array (anything ``np.asarray``
        accepts).
    """
    h = hashlib.blake2b(digest_size=16)
    h.update(expression.encode())
    for name in sorted(operands):
        h.update(name.encode())
        value = operands[name]
        if hasattr(value, "tensors") and hasattr(value, "format_name"):
            # Sparse format object: hash its named component arrays.
            # ``np.asarray`` on one would produce a 0-d object array
            # whose bytes are a pointer — identity, not content.
            h.update(value.format_name.encode())
            h.update(str(value.shape).encode())
            for key, array in sorted(value.tensors(name).items()):
                h.update(key.encode())
                _hash_array(h, np.asarray(array))
        else:
            _hash_array(h, np.asarray(value))
    return h.hexdigest()


def _hash_array(h, value: np.ndarray) -> None:
    h.update(str(value.shape).encode())
    h.update(str(value.dtype).encode())
    h.update(np.ascontiguousarray(value).tobytes())


class PoisonQuarantine:
    """A bounded LRU record of request keys that crash workers.

    When a request exhausts its dispatch attempts *because workers died
    under it*, its :func:`poison_key` lands here; the cluster's
    ``enqueue`` consults the quarantine and fails a matching resubmit
    fast with :class:`~repro.errors.PoisonedRequestError` instead of
    feeding it to another worker incarnation.  Bounded (LRU eviction at
    ``capacity``) so an adversarial stream of unique poisons cannot grow
    parent memory without limit.

    Parameters
    ----------
    capacity:
        Maximum keys retained; the least recently seen key is evicted.
    """

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._keys: OrderedDict[str, int] = OrderedDict()

    def record(self, key: str) -> None:
        """Quarantine one key (refreshes recency if already present).

        Parameters
        ----------
        key:
            The :func:`poison_key` of the request that crashed workers.
        """
        count = self._keys.pop(key, 0)
        self._keys[key] = count + 1
        while len(self._keys) > self.capacity:
            self._keys.popitem(last=False)

    def contains(self, key: str) -> bool:
        """True when the key is quarantined (refreshes its recency).

        Parameters
        ----------
        key:
            The fingerprint to test.
        """
        if key not in self._keys:
            return False
        self._keys.move_to_end(key)
        return True

    def __len__(self) -> int:
        return len(self._keys)

    def stats(self) -> dict:
        """Quarantine size and per-key crash counts for ``/v1/statsz``."""
        return {"size": len(self._keys), "keys": dict(self._keys)}
