"""Open-loop trace replay over a serve :class:`~repro.serve.Session`.

The replayer submits each trace record at its recorded arrival offset
and *never* closes the loop on slow responses: a backend falling behind
sees the full offered load pile up (queueing, admission pressure, tail
latency) instead of the flattering closed-loop picture where a slow
server quietly throttles its own clients.  The one deliberate exception
is shared-buffer safety — a record that refills a reused dense buffer in
place waits for the previous request reading that buffer, because
mutating an operand under an in-flight request is a client bug, not
load.

Every request's end-to-end latency and outcome feed the run's
:class:`SLOReport` — percentiles via the one canonical implementation
(:func:`repro.utils.timing.summarize`), counts mirrored into the
:mod:`repro.obs` metrics registry — and, when verification is on, the
result bytes are checked against the trace's expected digests.

Digest verification (``verify="auto"``, the default) engages on every
backend: each runs every request as its own call through the same batch
routine, so each promises bit-exact results.  Pass ``verify=False`` to turn
it off.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.obs.metrics import DEFAULT_LATENCY_BUCKETS_MS, get_registry
from repro.replay.trace import TraceMaterializer, WorkloadTrace, digest_array
from repro.serve import Session
from repro.serve.future import Future, FutureCancelledError
from repro.utils.timing import LatencySummary, summarize

#: Outcome labels a replayed request can end in.
OUTCOMES = ("ok", "mismatch", "error", "rejected", "cancelled", "timeout", "deadline")


@dataclass
class RequestOutcome:
    """One replayed request's fate.

    ``outcome`` is one of :data:`OUTCOMES`; ``slo_ok`` is True when the
    request completed cleanly within the trace's latency target.
    """

    index: int
    tenant: str
    outcome: str
    latency_ms: float
    slo_ok: bool
    error: str | None = None


@dataclass
class SLOReport:
    """What a replay run measured, and whether the SLO held.

    The count fields obey the conservation invariant the soak suite
    asserts: every submitted request is accounted for exactly once as
    completed, failed, or cancelled (``rejected`` and
    ``deadline_exceeded`` are sub-categories of failed; ``mismatch`` a
    sub-category of completed).  ``attainment``
    is the fraction of trace requests that completed cleanly within
    ``slo_latency_ms``; the run *attains* when that fraction reaches
    ``attainment_target``.
    """

    trace_name: str
    backend: str
    seed: int
    slo_latency_ms: float
    attainment_target: float
    submitted: int = 0
    completed: int = 0
    failed: int = 0
    cancelled: int = 0
    rejected: int = 0
    deadline_exceeded: int = 0
    timeouts: int = 0
    injected: int = 0
    injected_failures: int = 0
    digest_checked: int = 0
    digest_mismatches: int = 0
    wall_seconds: float = 0.0
    offered_rps: float = 0.0
    achieved_rps: float = 0.0
    goodput_rps: float = 0.0
    attainment: float = 0.0
    latency: LatencySummary | None = None
    per_tenant: dict[str, dict[str, float]] = field(default_factory=dict)
    outcomes: list[RequestOutcome] = field(default_factory=list)
    samples_ms: list[float] = field(default_factory=list)

    @property
    def attained(self) -> bool:
        """True when the run met its attainment target."""
        return self.attainment >= self.attainment_target

    def invariant_violations(self) -> list[str]:
        """Conservation/correctness violations, empty when the run is sound.

        Checks that no request was lost or double-counted
        (``completed + failed + cancelled == submitted`` and one recorded
        outcome per submission) and that every checked digest matched.
        """
        problems = []
        accounted = self.completed + self.failed + self.cancelled
        if accounted != self.submitted:
            problems.append(
                f"completed+failed+cancelled == {accounted}, submitted == {self.submitted}"
            )
        if len(self.outcomes) != self.submitted:
            problems.append(
                f"{len(self.outcomes)} recorded outcomes for {self.submitted} submissions"
            )
        if self.digest_mismatches:
            problems.append(f"{self.digest_mismatches} result-digest mismatches")
        if self.injected_failures:
            problems.append(f"{self.injected_failures} injected-request failures")
        return problems

    def to_dict(self) -> dict[str, Any]:
        """The JSON shape benchmarks and CI artifacts persist."""
        latency = self.latency or summarize(self.samples_ms)
        return {
            "trace": self.trace_name,
            "backend": self.backend,
            "seed": self.seed,
            "slo": {
                "latency_ms": self.slo_latency_ms,
                "attainment_target": self.attainment_target,
            },
            "submitted": self.submitted,
            "completed": self.completed,
            "failed": self.failed,
            "cancelled": self.cancelled,
            "rejected": self.rejected,
            "deadline_exceeded": self.deadline_exceeded,
            "timeouts": self.timeouts,
            "injected": self.injected,
            "injected_failures": self.injected_failures,
            "digest_checked": self.digest_checked,
            "digest_mismatches": self.digest_mismatches,
            "wall_seconds": round(self.wall_seconds, 4),
            "offered_rps": round(self.offered_rps, 2),
            "achieved_rps": round(self.achieved_rps, 2),
            "goodput_rps": round(self.goodput_rps, 2),
            "slo_attainment": round(self.attainment, 6),
            "attained": self.attained,
            "latency_ms": {
                "p50": latency.p50_ms,
                "p95": latency.p95_ms,
                "p99": latency.p99_ms,
                "mean": latency.mean_ms,
                "max": latency.max_ms,
            },
            "per_tenant": self.per_tenant,
            "invariant_violations": self.invariant_violations(),
        }

    def save(self, path: str | Path) -> Path:
        """Write :meth:`to_dict` as JSON (CI uploads these as artifacts).

        Parameters
        ----------
        path:
            Destination file; parent directories are created.
        """
        import json

        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")
        return path

    def summary(self) -> str:
        """A one-paragraph human-readable digest of the run."""
        latency = self.latency or summarize(self.samples_ms)
        verdict = "ATTAINED" if self.attained else "MISSED"
        return (
            f"[{self.trace_name} @ {self.backend}] {verdict} "
            f"{self.attainment:.1%} of target {self.attainment_target:.0%} "
            f"(SLO {self.slo_latency_ms:.0f} ms): {self.submitted} submitted, "
            f"{self.completed} completed, {self.failed} failed "
            f"({self.rejected} rejected, {self.deadline_exceeded} deadline, "
            f"{self.timeouts} timeouts), "
            f"{self.cancelled} cancelled; p50/p95/p99 "
            f"{latency.p50_ms:.1f}/{latency.p95_ms:.1f}/{latency.p99_ms:.1f} ms; "
            f"goodput {self.goodput_rps:.1f} rps over {self.wall_seconds:.2f} s"
        )

    def merge(self, other: "SLOReport") -> "SLOReport":
        """Combine two runs (e.g. one trace split across two backends).

        Counts add, samples concatenate (percentiles recomputed over the
        union), rates re-derive from the combined wall time, and the
        backend label joins the two.  Used by the mid-session
        backend-mix parity test.

        Parameters
        ----------
        other:
            The second run's report (same SLO definition expected).
        """
        merged = SLOReport(
            trace_name=self.trace_name,
            backend=f"{self.backend}+{other.backend}",
            seed=self.seed,
            slo_latency_ms=self.slo_latency_ms,
            attainment_target=self.attainment_target,
        )
        for name in (
            "submitted", "completed", "failed", "cancelled", "rejected",
            "deadline_exceeded", "timeouts", "injected", "injected_failures",
            "digest_checked", "digest_mismatches",
        ):
            setattr(merged, name, getattr(self, name) + getattr(other, name))
        merged.samples_ms = list(self.samples_ms) + list(other.samples_ms)
        merged.latency = summarize(merged.samples_ms) if merged.samples_ms else None
        merged.outcomes = list(self.outcomes) + list(other.outcomes)
        merged.wall_seconds = self.wall_seconds + other.wall_seconds
        ok_in_slo = sum(1 for outcome in merged.outcomes if outcome.slo_ok)
        merged.attainment = ok_in_slo / merged.submitted if merged.submitted else 0.0
        if merged.wall_seconds > 0:
            merged.offered_rps = merged.submitted / merged.wall_seconds
            merged.achieved_rps = merged.completed / merged.wall_seconds
            merged.goodput_rps = ok_in_slo / merged.wall_seconds
        tenants = set(self.per_tenant) | set(other.per_tenant)
        for tenant in tenants:
            a = self.per_tenant.get(tenant, {})
            b = other.per_tenant.get(tenant, {})
            submitted = a.get("submitted", 0) + b.get("submitted", 0)
            ok = a.get("ok", 0) + b.get("ok", 0)
            merged.per_tenant[tenant] = {
                "submitted": submitted,
                "ok": ok,
                "attainment": ok / submitted if submitted else 0.0,
            }
        return merged


def _should_verify(verify: bool | str) -> bool:
    """``verify`` as a bool: ``"auto"`` checks, as every backend is bit-exact."""
    if verify == "auto":
        return True
    if not isinstance(verify, bool):
        raise ValueError(f"verify must be True, False, or 'auto', not {verify!r}")
    return verify


def _wait_quietly(future: Future, timeout: float) -> None:
    try:
        future.exception(timeout=timeout)
    except (TimeoutError, FutureCancelledError):
        pass


@dataclass
class _Pending:
    index: int
    tenant: str
    future: Future
    submitted_at: float
    expected_digest: str | None


def replay(
    trace: WorkloadTrace,
    session: Session,
    *,
    verify: bool | str = "auto",
    time_scale: float = 1.0,
    drain_timeout: float = 60.0,
    injector: Any | None = None,
) -> SLOReport:
    """Replay ``trace`` through ``session`` open-loop; return the report.

    Each record is submitted at ``offset_ms * time_scale`` of wall time
    after the run starts, whether or not earlier requests have finished.
    After the last submission the run drains (bounded by
    ``drain_timeout``), classifies every future, and computes SLO
    attainment against the trace header's target.  Requests still
    pending at the drain deadline are cancelled and counted as timeouts
    (failed) — the report's conservation invariant always holds.

    Parameters
    ----------
    trace:
        The workload to replay (its header carries seed and SLO).
    session:
        An open serve session; any backend.  The session is *not* closed.
    verify:
        ``"auto"`` (default) and ``True`` check every result's digest:
        every backend promises bit-exact execution.
        ``False`` turns the check off; unverified runs report
        ``digest_checked == 0``.
    time_scale:
        Multiplier on trace offsets: ``1.0`` replays in real time,
        ``0.0`` submits as fast as possible, ``2.0`` at half speed.
    drain_timeout:
        Seconds to wait for stragglers after the last submission.
    injector:
        Optional :class:`repro.replay.faults.FaultInjector`; its hooks
        run around every submission and its injected out-of-band
        requests are settled and folded into the report.
    """
    check_digests = _should_verify(verify)
    materializer = TraceMaterializer(trace.seed)
    registry = get_registry()
    latency_hist = registry.histogram(
        "replay_request_latency_ms",
        "End-to-end replayed request latency",
        buckets=DEFAULT_LATENCY_BUCKETS_MS,
        backend=session.backend_name,
    )

    report = SLOReport(
        trace_name=trace.name,
        backend=session.backend_name,
        seed=trace.seed,
        slo_latency_ms=trace.header.slo.latency_ms,
        attainment_target=trace.header.slo.attainment_target,
    )
    pending: list[_Pending] = []
    busy_buffers: dict[tuple[str, str, tuple[int, ...]], Future] = {}
    start = time.perf_counter()

    for index, record in enumerate(trace.records):
        if time_scale > 0:
            target = start + (record.offset_ms / 1e3) * time_scale
            delay = target - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
        force_reuse = False
        if injector is not None:
            force_reuse = bool(injector.before_record(session, index, record))
        buffer_keys = materializer.reused_buffer_keys(record, force_reuse)
        for key in buffer_keys:
            occupant = busy_buffers.get(key)
            if occupant is not None and not occupant.done():
                _wait_quietly(occupant, drain_timeout)
        operands = materializer.materialize(record, force_reuse)
        submitted_at = time.perf_counter()
        deadline_ms = record.extras.get("deadline_ms")
        submit_kwargs: dict[str, Any] = {
            "deadline_ms": None if deadline_ms is None else float(deadline_ms),
        }
        if getattr(session, "accepts_tenant", False):
            # Session-shaped HTTP clients (repro.gateway.GatewayClient)
            # route each record through its tenant's API key, so the
            # gateway's per-tenant accounting sees the trace's mix.
            submit_kwargs["tenant"] = record.tenant
        future = session.submit(record.expression, **submit_kwargs, **operands)
        report.submitted += 1
        for key in buffer_keys:
            busy_buffers[key] = future
        pending.append(
            _Pending(index, record.tenant, future, submitted_at, record.digest)
        )
        if injector is not None:
            injector.after_record(session, index, record, future)

    deadline = time.perf_counter() + drain_timeout
    tenant_counts: dict[str, dict[str, float]] = {}
    for item in pending:
        remaining = max(0.0, deadline - time.perf_counter())
        outcome = _settle(item, remaining, check_digests, report)
        report.outcomes.append(outcome)
        report.samples_ms.append(outcome.latency_ms)
        latency_hist.observe(outcome.latency_ms)
        registry.counter(
            "replay_requests_total",
            "Replayed requests by outcome",
            backend=session.backend_name,
            outcome=outcome.outcome,
            tenant=item.tenant,
        ).inc()
        bucket = tenant_counts.setdefault(item.tenant, {"submitted": 0, "ok": 0})
        bucket["submitted"] += 1
        if outcome.slo_ok:
            bucket["ok"] += 1

    if injector is not None:
        injected_ok, injected_bad = injector.finalize(session, drain_timeout)
        report.injected = injected_ok + injected_bad
        report.injected_failures = injected_bad

    report.wall_seconds = time.perf_counter() - start
    report.latency = summarize(report.samples_ms) if report.samples_ms else None
    ok_in_slo = sum(1 for outcome in report.outcomes if outcome.slo_ok)
    report.attainment = ok_in_slo / report.submitted if report.submitted else 0.0
    if report.wall_seconds > 0:
        report.offered_rps = report.submitted / report.wall_seconds
        report.achieved_rps = report.completed / report.wall_seconds
        report.goodput_rps = ok_in_slo / report.wall_seconds
    for tenant, bucket in tenant_counts.items():
        submitted = bucket["submitted"]
        report.per_tenant[tenant] = {
            "submitted": submitted,
            "ok": bucket["ok"],
            "attainment": bucket["ok"] / submitted if submitted else 0.0,
        }
    registry.gauge(
        "replay_slo_attainment",
        "SLO attainment of the most recent replay run",
        backend=session.backend_name,
    ).set(report.attainment)
    return report


def _settle(
    item: _Pending, timeout: float, check_digests: bool, report: SLOReport
) -> RequestOutcome:
    """Classify one pending future into a :class:`RequestOutcome`."""
    from repro.cluster import ClusterBusyError
    from repro.errors import DeadlineExceededError

    slo_ms = report.slo_latency_ms
    try:
        result = item.future.result(timeout=timeout)
    except FutureCancelledError:
        report.cancelled += 1
        latency = _latency_ms(item)
        return RequestOutcome(item.index, item.tenant, "cancelled", latency, False)
    except DeadlineExceededError as error:
        # A request past its own deadline is a serving outcome
        # ("deadline"), distinct from a drain-window timeout.
        report.failed += 1
        report.deadline_exceeded += 1
        latency = _latency_ms(item)
        return RequestOutcome(
            item.index, item.tenant, "deadline", latency, False, error=str(error)
        )
    except TimeoutError:
        item.future.cancel()
        report.failed += 1
        report.timeouts += 1
        latency = (time.perf_counter() - item.submitted_at) * 1e3
        return RequestOutcome(item.index, item.tenant, "timeout", latency, False)
    except ClusterBusyError as error:
        report.failed += 1
        report.rejected += 1
        latency = _latency_ms(item)
        return RequestOutcome(
            item.index, item.tenant, "rejected", latency, False, error=str(error)
        )
    except Exception as error:  # noqa: BLE001 - every failure becomes an outcome
        report.failed += 1
        latency = _latency_ms(item)
        return RequestOutcome(
            item.index, item.tenant, "error", latency, False, error=repr(error)
        )
    latency = _latency_ms(item)
    if check_digests and item.expected_digest is not None:
        report.digest_checked += 1
        if digest_array(result) != item.expected_digest:
            report.digest_mismatches += 1
            report.completed += 1
            return RequestOutcome(
                item.index, item.tenant, "mismatch", latency, False,
                error="result digest mismatch",
            )
    report.completed += 1
    return RequestOutcome(item.index, item.tenant, "ok", latency, latency <= slo_ms)


def _latency_ms(item: _Pending) -> float:
    measured = item.future.latency_ms
    if measured is not None:
        return float(measured)
    return (time.perf_counter() - item.submitted_at) * 1e3


def replay_file(
    path: str | Path,
    backend: str = "inline",
    config: Any | None = None,
    *,
    refresh_digests: bool = False,
    **kwargs: Any,
) -> SLOReport:
    """Load a trace file, open a session, replay, close, return the report.

    The convenience entry point the benchmark CLI uses.

    Parameters
    ----------
    path:
        A ``repro-trace/1`` JSONL file.
    backend:
        Serve backend name (``inline``, ``threaded``, ``cluster``).
    config:
        Optional :class:`~repro.serve.ServeConfig` for the session.
    refresh_digests:
        Recompute expected digests on this machine before replaying
        (required when the trace was generated elsewhere — result bits
        depend on the local BLAS).
    **kwargs:
        Forwarded to :func:`replay` (``verify=``, ``time_scale=``, ...).
    """
    from repro.replay.trace import read_trace

    trace = read_trace(path)
    if refresh_digests:
        trace.refresh_digests()
    session = Session(backend, config=config)
    try:
        return replay(trace, session, **kwargs)
    finally:
        session.close()


__all__ = [
    "OUTCOMES",
    "RequestOutcome",
    "SLOReport",
    "replay",
    "replay_file",
]
