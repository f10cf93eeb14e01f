"""ExecutorBackend: the protocol every serving tier speaks.

The serve tier's refactoring move: :class:`~repro.runtime.server.InsumServer`
(threaded) and :class:`~repro.cluster.server.ClusterServer`
(multi-process) both implement this one structural protocol, and so does
:class:`~repro.runtime.server.InlineBackend` (re-exported here), the
zero-infrastructure variant that serves each request in the calling
thread — so :class:`repro.serve.Session` drives all three through
identical plumbing.  Every tier executes through the inline backend's
one request routine (the cluster's in its worker processes), which is what
makes one workload's results bit-identical across them.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from repro.runtime.request import Request
from repro.runtime.server import InlineBackend, InsumServer
from repro.runtime.stats import ServeStats
from repro.serve.config import ServeConfig


@runtime_checkable
class ExecutorBackend(Protocol):
    """The structural contract between :class:`Session` and a serving tier.

    ``InsumServer``, ``ClusterServer``, and :class:`InlineBackend` all
    satisfy it; a custom tier only has to match these five methods to sit
    behind a session.  The request-carrying pair is ``submit`` /
    ``try_cancel``; the rest is reporting and lifecycle.
    """

    def submit(self, request: Request) -> None:
        """Accept one request, or raise a :class:`~repro.errors.ServeError`.

        An accepted request's ``on_done`` is called exactly once with its
        terminal :class:`~repro.runtime.request.InsumResult` (possibly
        before ``submit`` returns); a refused request's never is.
        """
        ...

    def try_cancel(self, request: Request) -> bool:
        """Withdraw a not-yet-dispatched request; False once it is running.

        On True the request never executes and its ``on_done`` receives a
        :class:`~repro.errors.FutureCancelledError` result.
        """
        ...

    def stats(self) -> ServeStats:
        """The tier's report over its current measurement window."""
        ...

    def reset_stats(self) -> None:
        """Start a fresh measurement window."""
        ...

    def close(self) -> None:
        """Drain outstanding work and release the tier's resources."""
        ...


def build_backend(name: str, config: ServeConfig) -> ExecutorBackend:
    """Construct the named tier from a validated :class:`ServeConfig`.

    Parameters
    ----------
    name:
        ``"inline"``, ``"threaded"``, or ``"cluster"``.
    config:
        Already validated for ``name`` (see :meth:`ServeConfig.validate`).
    """
    kwargs = config._backend_kwargs(name)
    if name == "inline":
        return InlineBackend(**kwargs)
    if name == "threaded":
        return InsumServer(**kwargs)
    from repro.cluster.server import ClusterServer

    return ClusterServer(**kwargs)
