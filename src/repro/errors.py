"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError`, so user
code can catch a single base class.  Sub-hierarchies mirror the pipeline
stages: the Einsum frontend, format construction, lowering, the
Inductor-like backend, and the simulated device.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro package."""


class EinsumError(ReproError):
    """Base class for errors in the indirect-Einsum frontend."""


class EinsumSyntaxError(EinsumError):
    """The einsum expression string could not be parsed.

    Carries the offending text and position so callers can point at the
    exact character that confused the parser.
    """

    def __init__(self, message: str, text: str = "", position: int | None = None):
        self.text = text
        self.position = position
        if text and position is not None:
            pointer = " " * position + "^"
            message = f"{message}\n  {text}\n  {pointer}"
        super().__init__(message)


class EinsumValidationError(EinsumError):
    """The expression parsed but is semantically invalid.

    Examples: an index used on the left-hand side that never appears on the
    right, a tensor referenced in the expression but not bound to a value,
    or inconsistent dimension sizes for the same index variable.
    """


class IndexOutOfBoundsError(EinsumValidationError, IndexError):
    """An index tensor holds a value outside the axis it indexes.

    Raised by the executor, which checks every index it loads: the emitted
    loop nest and the NumPy step list alike.  The index domain is NumPy's —
    a value in ``[-extent, extent)`` is in range and a negative one wraps —
    so anything else raises this, on every tier.  An ``IndexError`` too, as
    ``np.take`` raises one.
    """


class FormatError(ReproError):
    """Base class for sparse-format construction and conversion errors."""


class ShapeError(FormatError):
    """A tensor or block shape is inconsistent with the format invariants."""


class LoweringError(ReproError):
    """Lowering from one IR to the next failed."""


class AutotuneError(ReproError):
    """The autotuner could not find any valid configuration."""


class DeviceError(ReproError):
    """The simulated device rejected a kernel (e.g. tile too large)."""


class ServeError(ReproError):
    """Base class for serving-tier errors (Session, InsumServer, ClusterServer).

    Every failure mode of the serving stack — admission rejection, worker
    crashes, cancelled futures, closed sessions — derives from this one
    class, so a caller holding a :class:`~repro.serve.Future` can catch
    ``ServeError`` and know it has covered the tier-specific failures of
    whichever backend the session runs on.
    """


class SessionClosedError(ServeError, RuntimeError):
    """An operation was attempted on a closed serving session or server."""


class FutureCancelledError(ServeError):
    """The future was cancelled before its request was dispatched.

    Raised by :meth:`repro.serve.Future.result` / ``exception`` after a
    successful :meth:`repro.serve.Future.cancel`.
    """


class ClusterBusyError(ServeError, RuntimeError):
    """The cluster is at its in-flight limit; retry after ``retry_after`` s.

    Parameters
    ----------
    inflight / limit:
        The in-flight count at rejection time and the configured bound.
    retry_after:
        Estimated seconds until capacity frees (one service interval,
        from the cluster's recent completion rate).
    """

    def __init__(self, inflight: int, limit: int, retry_after: float):
        super().__init__(
            f"cluster is at capacity ({inflight}/{limit} requests in flight); "
            f"retry after {retry_after:.3f}s"
        )
        self.inflight = inflight
        self.limit = limit
        self.retry_after = retry_after


class WorkerCrashedError(ServeError, RuntimeError):
    """A request exhausted its dispatch attempts across worker crashes."""


class PoisonedRequestError(WorkerCrashedError):
    """A request matching a known worker-killing key was failed fast.

    Raised when the poison quarantine (see
    :class:`repro.resilience.supervisor.PoisonQuarantine`) recognises a
    request whose key already crashed a worker ``max_attempts`` times:
    instead of burning another worker incarnation on it, the request
    fails immediately.  Deliberately *not* retryable — retrying would
    defeat the quarantine.
    """


class DeadlineExceededError(ServeError, RuntimeError):
    """The request's deadline expired before it produced a usable result.

    Set a deadline with ``Session.submit(..., deadline_ms=...)``.  The
    error is terminal wherever the expiry is detected — before dispatch,
    in a queue, worker-side before execution, or at completion time when
    the result lands too late to be useful — so the caller's
    ``Future.result()`` resolves instead of waiting for work the serving
    stack has already abandoned.  Deliberately *not* a ``TimeoutError``
    subclass: a wait timeout means "still running, ask again", a missed
    deadline is a terminal outcome.
    """


class GatewayError(ServeError):
    """Base class for HTTP-gateway failures (transport, wire, protocol).

    Raised client-side by :class:`repro.gateway.GatewayClient` when a
    response cannot be mapped back onto a more specific repro exception
    — an unreachable server, a malformed body, or an error type the
    client does not recognise.  Serving-tier errors that crossed the
    wire intact re-raise as *themselves* (``ClusterBusyError`` stays
    ``ClusterBusyError``), so ``GatewayError`` marks precisely the
    failures the gateway layer itself introduced.
    """


class GatewayAuthError(GatewayError):
    """The gateway rejected the request's API key (HTTP 401 or 403).

    ``status`` is 401 when no key was presented and 403 when a key was
    presented but is not in the gateway's keyring — the same distinction
    the HTTP response carries, preserved so client code can tell
    "configure a key" apart from "this key is wrong".
    """

    def __init__(self, message: str, status: int = 401):
        super().__init__(message)
        self.status = status


class WireFormatError(GatewayError, ValueError):
    """A request or response body violates the gateway wire format.

    Covers malformed JSON, a bad binary frame (wrong magic, truncated
    payload), an unknown operand descriptor, and operand values the
    wire codec cannot represent.  Maps to HTTP 400 — the request can
    never succeed as sent, so it is deliberately not retryable.
    """


class TenantQuotaError(ClusterBusyError):
    """One tenant is at its gateway admission quota; others are unaffected.

    A :class:`ClusterBusyError` subclass on purpose: the per-tenant
    gate layered on the cluster-wide admission gate fails the same way
    — over capacity, retry after ``retry_after`` — so retry policies
    and replay classification treat both rejections identically.

    Parameters
    ----------
    tenant:
        The tenant whose quota is exhausted.
    inflight / limit:
        The tenant's in-flight count at rejection time and its bound.
    retry_after:
        Suggested seconds to wait before resubmitting.
    """

    def __init__(self, tenant: str, inflight: int, limit: int, retry_after: float):
        super().__init__(inflight, limit, retry_after)
        self.tenant = tenant
        self.args = (
            f"tenant {tenant!r} is at its admission quota "
            f"({inflight}/{limit} requests in flight); "
            f"retry after {retry_after:.3f}s",
        )


class ControlThreadError(ServeError, RuntimeError):
    """A serving control thread (a cluster collector or monitor) died.

    An unexpected exception in one of the cluster's control threads
    means the parent can no longer guarantee progress, so every in-flight
    request is failed with this error and the backend refuses new work —
    a ``Future`` never hangs on a request nobody is driving.  The session
    reports unhealthy; with a failover backend configured, new submits
    route around the failed tier.
    """
