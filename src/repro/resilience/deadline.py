"""Per-request deadlines: bounded waiting on every serving tier.

A deadline is an *absolute* wall-clock expiry (``time.time()`` epoch
seconds), set at ``Session.submit(..., deadline_ms=...)`` and carried
with the request through whichever tier serves it.  Wall clock, not
``perf_counter``: a cluster request crosses a process boundary, and the
parent and worker share a host clock but not a monotonic epoch (the
same reasoning as :mod:`repro.obs.trace`).

Expiry is enforced at every stage a request can linger:

* **before dispatch** — the backend's ``submit`` (every tier) and the
  cluster's dispatch (a crash's redispatch too) refuse already-expired
  work;
* **in a queue** — the request routine the threaded workers and the
  cluster workers run sheds a request that expired by its turn (behind
  earlier requests), without executing it;
* **mid-execute** — a result that lands after its deadline is converted
  to a :class:`~repro.errors.DeadlineExceededError` at record time, so
  "too late" is a deterministic terminal outcome rather than a race
  between the caller's wait and the worker's finish line.

The deadline rides on the request itself
(:attr:`repro.runtime.request.Request.deadline`) from the session into
whichever backend accepts it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.errors import DeadlineExceededError

__all__ = ["Deadline", "deadline_error", "expired_result"]


@dataclass(frozen=True)
class Deadline:
    """An absolute wall-clock expiry for one request.

    ``expires_at`` is epoch seconds (``time.time()``); the raw float is
    what crosses the cluster's request envelope, and
    :meth:`from_epoch` rebuilds the deadline worker-side.
    """

    expires_at: float

    @classmethod
    def after_ms(cls, deadline_ms: float, now: float | None = None) -> "Deadline":
        """The deadline ``deadline_ms`` milliseconds from ``now``.

        Parameters
        ----------
        deadline_ms:
            Budget in milliseconds; zero or negative means already
            expired (useful for tests and for shedding known-late work).
        now:
            Epoch seconds to anchor on (defaults to ``time.time()``).
        """
        now = time.time() if now is None else now
        return cls(expires_at=now + float(deadline_ms) / 1e3)

    @classmethod
    def from_epoch(cls, expires_at: float | None) -> "Deadline | None":
        """Rebuild a deadline from a raw epoch float (None passes through).

        Parameters
        ----------
        expires_at:
            The ``expires_at`` shipped in a request envelope, or None
            when the request carried no deadline.
        """
        return None if expires_at is None else cls(expires_at=float(expires_at))

    def expired(self, now: float | None = None) -> bool:
        """True once the wall clock has passed ``expires_at``."""
        now = time.time() if now is None else now
        return now >= self.expires_at

    def remaining_s(self, now: float | None = None) -> float:
        """Seconds until expiry, clamped at zero."""
        now = time.time() if now is None else now
        return max(0.0, self.expires_at - now)


def deadline_error(request_id: int, stage: str) -> DeadlineExceededError:
    """The terminal error for one expired request.

    Parameters
    ----------
    request_id:
        The id the serving tier gave the expired request.
    stage:
        Where expiry was detected (``"queue"``, ``"worker"``,
        ``"execute"``, ...); recorded in the message for debugging.
    """
    return DeadlineExceededError(
        f"request {request_id} exceeded its deadline ({stage})"
    )


def expired_result(result, deadline: Deadline | None, stage: str = "execute"):
    """Convert a late completion into a deadline failure, in place.

    Called at record time by every tier: a request that finished *after*
    its deadline delivers :class:`~repro.errors.DeadlineExceededError`
    (its output is discarded), so the caller observes the same terminal
    outcome whether the request was shed early or merely finished late.
    Returns the (possibly modified) result for call-site convenience.

    Parameters
    ----------
    result:
        The tier's :class:`~repro.runtime.server.InsumResult`.
    deadline:
        The request's deadline (None = no conversion).
    stage:
        Label for the error message.
    """
    if deadline is None or result.error is not None or not deadline.expired():
        return result
    result.output = None
    result.error = deadline_error(result.request_id, stage)
    return result
