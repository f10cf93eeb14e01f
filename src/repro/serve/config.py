"""ServeConfig: one typed configuration for every serving backend.

Before the serve tier, each backend grew its own kwarg set —
``InsumServer(num_workers=, coalesce=, ...)``,
``ClusterServer(num_workers=, worker_threads=, max_inflight=, ...)`` —
with near-identical-but-divergent names and no cross-checking.
``ServeConfig`` consolidates them into one frozen dataclass with
per-backend validation: a field that is meaningless for the chosen
backend (``max_inflight`` on a threaded session, ``coalesce`` on an
inline one) raises :class:`ServeConfigError` instead of being silently
ignored.

Each field is declared once: its dataclass entry carries, as
``metadata``, the backends it is meaningful on and the constructor
keyword it is forwarded under.  Validation, environment parsing, kwarg
resolution and :func:`repro.resilience.failover.fallback_config` all read
that declaration through ``dataclasses.fields``.

Tier-specific fields default to ``None`` meaning "the backend's own
default"; only explicitly-set fields are validated and forwarded.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from typing import Any, Callable, Mapping, get_args, get_type_hints

from repro.errors import ServeError

#: The recognised backend names, in escalation order.
BACKENDS = ("inline", "threaded", "cluster")

#: Environment-variable prefix understood by :meth:`ServeConfig.from_env`.
ENV_PREFIX = "REPRO_SERVE_"


class ServeConfigError(ServeError, ValueError):
    """A :class:`ServeConfig` is invalid for the requested backend."""


def _parse_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


_ENV_PARSERS: dict[Any, Callable[[str], Any]] = {
    int: int,
    float: float,
    str: str,
    bool: _parse_bool,
}


def config_from_env(
    cls: type,
    prefix: str,
    environ: Mapping[str, str] | None,
    error: type[Exception],
    parsers: Mapping[str, Callable[[str], Any]] | None = None,
) -> Any:
    """Build the config dataclass ``cls`` from ``<prefix><FIELD>`` variables.

    Each value is parsed by the field's annotated type (``int``,
    ``float``, ``str``, ``bool`` — optionally ``| None``; booleans accept
    1/0, true/false, yes/no, on/off) or by the field's entry in
    ``parsers``.  A field with neither (``compile_config``) is not
    expressible as an environment string and is skipped; a value that
    does not parse raises ``error`` naming the variable.
    """
    environ = os.environ if environ is None else environ
    parsers = parsers or {}
    hints = get_type_hints(cls)
    overrides: dict[str, Any] = {}
    for config_field in dataclasses.fields(cls):
        variable = f"{prefix}{config_field.name.upper()}"
        raw = environ.get(variable)
        if raw is None:
            continue
        hint = hints[config_field.name]
        kinds = [arg for arg in get_args(hint) if arg is not type(None)] or [hint]
        parse = parsers.get(config_field.name) or _ENV_PARSERS.get(kinds[0])
        if parse is None:
            continue
        try:
            overrides[config_field.name] = parse(raw)
        except ValueError as caught:
            raise error(f"{variable}={raw!r}: {caught}") from None
    return cls(**overrides)


def _option(*backends: str, kwarg: str | None = None, default: Any = None) -> Any:
    """Declare one field: the backends it applies to (none named = all of
    them) and the backend-constructor keyword it is forwarded under
    (``None`` = read by :class:`~repro.serve.Session` itself)."""
    return dataclasses.field(
        default=default,
        metadata={"backends": frozenset(backends or BACKENDS), "kwarg": kwarg},
    )


@dataclass(frozen=True)
class ServeConfig:
    """Typed, validated configuration for :class:`repro.serve.Session`.

    Parameters
    ----------
    workers:
        Worker parallelism of the tier: threads for ``threaded``,
        processes for ``cluster`` (defaults: 4 / 2).  Meaningless — and
        rejected — for ``inline``, which executes in the calling thread.
    worker_threads:
        Cluster only: threads per worker process.  ``None`` or 1, the only
        value: each worker executes on its main thread, and ``workers``
        scales the cluster.
    compile_backend / compile_config:
        The compiler stack under every operator (any backend).
    auto_format:
        Tuner-driven per-request re-formatting (any backend).
    coalesce:
        Same-plan request coalescing (threaded and cluster — inline has
        no queue to drain a window from).
    admission / max_inflight / block_timeout:
        Cluster admission control (``"block"`` or ``"reject"``).
    max_attempts:
        Cluster: dispatch attempts across worker crashes before a request
        fails with :class:`~repro.errors.WorkerCrashedError`.
    ring_capacity:
        Cluster: bytes per shared-memory transport ring.
    health_interval / heartbeat_timeout:
        Cluster: the health monitor's cadence and the heartbeat staleness
        beyond which a live-but-silent worker is replaced;
        ``heartbeat_timeout=0`` disables the staleness check.
    retry_attempts / retry_base_delay / retry_max_delay:
        Cluster: session-level :class:`~repro.resilience.RetryPolicy` for
        retryable failures (worker crashes, admission rejection);
        ``retry_attempts=1`` disables retries (the default).
    restart_budget / restart_window:
        Cluster: the :class:`~repro.resilience.WorkerSupervisor` token
        bucket — at most ``restart_budget`` restarts per worker slot per
        ``restart_window`` seconds; an exhausted slot is permanently dead.
    failover / failover_floor:
        Cluster: keep a warm in-process fallback backend (``"inline"`` or
        ``"threaded"``) and route new submits to it while fewer than
        ``failover_floor`` workers are healthy or the cluster's control
        plane has failed (see ``docs/RESILIENCE.md``).
    """

    workers: int | None = _option("threaded", "cluster", kwarg="num_workers")
    worker_threads: int | None = _option("cluster", kwarg="worker_threads")
    compile_backend: str = _option(kwarg="backend", default="inductor")
    compile_config: Any = _option(kwarg="config")
    auto_format: bool = _option(kwarg="auto_format", default=False)
    coalesce: bool | None = _option("threaded", "cluster", kwarg="coalesce")
    admission: str | None = _option("cluster", kwarg="admission")
    max_inflight: int | None = _option("cluster", kwarg="max_inflight")
    block_timeout: float | None = _option("cluster", kwarg="block_timeout")
    max_attempts: int | None = _option("cluster", kwarg="max_attempts")
    ring_capacity: int | None = _option("cluster", kwarg="ring_capacity")
    health_interval: float | None = _option("cluster", kwarg="health_interval")
    heartbeat_timeout: float | None = _option("cluster", kwarg="heartbeat_timeout")
    retry_attempts: int | None = _option("cluster")
    retry_base_delay: float | None = _option("cluster")
    retry_max_delay: float | None = _option("cluster")
    restart_budget: int | None = _option("cluster", kwarg="restart_budget")
    restart_window: float | None = _option("cluster", kwarg="restart_window")
    failover: str | None = _option("cluster")
    failover_floor: int | None = _option("cluster")

    def validate(self, backend: str) -> None:
        """Reject this config when it is meaningless for ``backend``.

        Parameters
        ----------
        backend:
            One of ``"inline"``, ``"threaded"``, ``"cluster"``.

        Raises
        ------
        ServeConfigError
            For an unknown backend, or when any explicitly-set field does
            not apply to it (every offending field is named in the
            message — nothing is silently ignored).
        """
        if backend not in BACKENDS:
            raise ServeConfigError(
                f"unknown backend {backend!r}; expected one of {', '.join(BACKENDS)}"
            )
        offending = [
            config_field
            for config_field in dataclasses.fields(self)
            if getattr(self, config_field.name) is not None
            and backend not in config_field.metadata["backends"]
        ]
        if offending:
            details = ", ".join(
                f"{config_field.name} (only meaningful on "
                f"{'/'.join(sorted(config_field.metadata['backends']))})"
                for config_field in offending
            )
            raise ServeConfigError(
                f"ServeConfig fields not applicable to the {backend!r} backend: {details}"
            )
        if self.workers is not None and self.workers < 1:
            raise ServeConfigError(f"workers must be >= 1, got {self.workers}")
        if self.worker_threads not in (None, 1):
            raise ServeConfigError(f"worker_threads must be 1, got {self.worker_threads}")
        if self.admission is not None and self.admission not in ("block", "reject"):
            raise ServeConfigError(
                f"admission must be 'block' or 'reject', got {self.admission!r}"
            )
        if self.retry_attempts is not None and self.retry_attempts < 1:
            raise ServeConfigError(
                f"retry_attempts must be >= 1, got {self.retry_attempts}"
            )
        if self.restart_budget is not None and self.restart_budget < 0:
            raise ServeConfigError(
                f"restart_budget must be >= 0, got {self.restart_budget}"
            )
        if self.restart_window is not None and self.restart_window <= 0:
            raise ServeConfigError(
                f"restart_window must be > 0, got {self.restart_window}"
            )
        if self.failover is not None and self.failover not in ("inline", "threaded"):
            raise ServeConfigError(
                f"failover must be 'inline' or 'threaded', got {self.failover!r}"
            )
        if self.failover_floor is not None and self.failover_floor < 1:
            raise ServeConfigError(
                f"failover_floor must be >= 1, got {self.failover_floor}"
            )

    @classmethod
    def from_env(cls, environ: Mapping[str, str] | None = None) -> "ServeConfig":
        """Build a config from ``REPRO_SERVE_*`` environment variables.

        Each dataclass field maps to ``REPRO_SERVE_<FIELD>`` (upper-case):
        ``REPRO_SERVE_WORKERS=8``, ``REPRO_SERVE_COALESCE=off``,
        ``REPRO_SERVE_MAX_INFLIGHT=256``, ...  Unset variables leave the
        field at its default; values are parsed by the field's type
        (booleans accept 1/0, true/false, yes/no, on/off).

        Parameters
        ----------
        environ:
            The mapping to read (defaults to ``os.environ``).
        """
        return config_from_env(cls, ENV_PREFIX, environ, ServeConfigError)

    def _backend_kwargs(self, backend: str) -> dict[str, Any]:
        """Constructor kwargs of ``backend``'s tier: every set field the
        tier accepts, under the keyword its declaration names."""
        return {
            config_field.metadata["kwarg"]: getattr(self, config_field.name)
            for config_field in dataclasses.fields(self)
            if config_field.metadata["kwarg"] is not None
            and backend in config_field.metadata["backends"]
            and getattr(self, config_field.name) is not None
        }
