"""Fault-injection soak suite over the cluster backend.

Each test replays a seeded trace under a deterministic fault schedule
and asserts the conservation invariants the serving stack promises:
every submitted request is accounted for exactly once
(completed + failed + cancelled == submitted — nothing lost, nothing
duplicated), every checked result digest matches, and the cluster
leaves no shared-memory segment behind.  Reports are persisted into
``REPLAY_REPORT_DIR`` (when set) so CI uploads them on pass and fail.
"""

from pathlib import Path

import pytest

from repro.cluster import segment_exists
from repro.replay import FAULT_KINDS, FaultInjector, FaultSchedule, read_trace, replay, synthesize
from repro.serve import ServeConfig, Session

#: The committed mixed-tenant smoke trace (96 records at 200 req/s).
SMOKE_TRACE = Path(__file__).resolve().parents[2] / "benchmarks" / "traces" / "mixed_smoke.jsonl"

#: Seeded runs the full-catalogue soak performs (acceptance: 10/10).
SOAK_RUNS = 10

#: Small ring so the oversized-operand fault actually exceeds the
#: payload budget (half the ring) and takes the fallback path.
SOAK_RING_CAPACITY = 256 * 1024

#: Session knobs for runs that include the resilience fault kinds:
#: a small restart budget so ``crash_loop_worker`` exhausts it quickly,
#: a fast monitor, a warm threaded fallback so the replay keeps
#: completing work after ``control_thread_exception`` kills the primary
#: control plane, and session-level retries so transient crash give-ups
#: and busy rejections resubmit (through the fallback once the primary
#: is below its floor) instead of surfacing as failures.
RESILIENT_OVERRIDES = dict(
    restart_budget=1,
    health_interval=0.1,
    failover="threaded",
    failover_floor=1,
    retry_attempts=3,
    retry_base_delay=0.05,
    retry_max_delay=0.5,
)


def cluster_session(**overrides) -> Session:
    """A 2-worker uncoalesced cluster session with deterministic rejects."""
    fields = dict(
        workers=2,
        coalesce=False,
        admission="reject",
        ring_capacity=SOAK_RING_CAPACITY,
    )
    fields.update(overrides)
    return Session("cluster", config=ServeConfig(**fields))


def run_fault(trace, kinds, *, oversized_elements=1 << 15, overrides=None, inspect=None):
    """Replay ``trace`` under the given fault kinds; return (report, stats).

    ``overrides`` feeds extra :class:`ServeConfig` fields to the session;
    ``inspect`` is called with the live session after the replay (before
    close) so a test can examine supervisor or health state.
    """
    schedule = FaultSchedule.generate(trace.seed, len(trace), kinds=kinds)
    injector = FaultInjector(schedule, oversized_elements=oversized_elements)
    session = cluster_session(**(overrides or {}))
    segments = list(session._backend.segment_names)
    try:
        report = replay(trace, session, time_scale=0.0, injector=injector)
        stats = session.stats()
        if inspect is not None:
            inspect(session)
    finally:
        session.close()
    leaked = [name for name in segments if segment_exists(name)]
    assert leaked == [], f"leaked shm segments: {leaked}"
    assert injector.skipped == [], f"faults not applied: {injector.skipped}"
    return report, stats


def assert_sound(report):
    """The invariants every soak run must satisfy, fault or no fault."""
    assert report.invariant_violations() == []
    assert report.completed + report.failed + report.cancelled == report.submitted
    assert len(report.outcomes) == report.submitted
    assert report.digest_mismatches == 0
    assert report.injected_failures == 0


class TestIndividualFaults:
    def test_worker_kill_restarts_and_requeues(self, seed, report_sink):
        trace = synthesize("soak-kill", seed=seed, num_records=20, rate_rps=400.0)
        report, stats = run_fault(trace, kinds=("worker_kill",))
        report_sink(report)
        assert_sound(report)
        assert stats.restarts >= 1
        # Every stranded request was requeued and completed: nothing lost.
        assert report.completed == report.submitted

    def test_admission_saturation_rejects_deterministically(self, seed, report_sink):
        trace = synthesize("soak-admit", seed=seed, num_records=20, rate_rps=400.0)
        report, stats = run_fault(trace, kinds=("admission_saturation",))
        report_sink(report)
        assert_sound(report)
        assert report.rejected >= 1
        assert stats.rejected >= 1
        # A rejection is failed, never lost.
        assert report.failed >= report.rejected

    def test_oversized_operand_takes_fallback_path(self, seed, report_sink):
        trace = synthesize("soak-oversize", seed=seed, num_records=20, rate_rps=400.0)
        report, _ = run_fault(
            trace, kinds=("oversized_operand",), oversized_elements=1 << 15
        )
        report_sink(report)
        assert_sound(report)
        assert report.injected == 1
        assert report.injected_failures == 0  # fallback produced the right answer

    def test_value_mutation_is_reshipped_not_stale(self, seed, report_sink):
        trace = synthesize("soak-mutate", seed=seed, num_records=20, rate_rps=400.0)
        report, _ = run_fault(trace, kinds=("value_mutation",))
        report_sink(report)
        assert_sound(report)
        # Digest verification is the teeth here: a stale identity-cache
        # hit after an in-place refill would produce a mismatch.
        assert report.digest_checked == report.completed
        assert report.digest_mismatches == 0

    def test_control_thread_death_fails_over_not_hangs(self, seed, report_sink):
        trace = synthesize("soak-control", seed=seed, num_records=20, rate_rps=400.0)
        report, stats = run_fault(
            trace,
            kinds=("control_thread_exception",),
            overrides=dict(failover="threaded", failover_floor=1),
        )
        report_sink(report)
        assert_sound(report)
        # Everything resolved (soundness above proves no hangs), and the
        # records submitted after the fault were served by the fallback:
        # the primary never saw the whole trace.
        assert report.completed >= 1
        assert stats.submitted < report.submitted

    def test_crash_loop_exhausts_the_restart_budget(self, seed, report_sink):
        trace = synthesize("soak-crashloop", seed=seed, num_records=20, rate_rps=400.0)
        dead = []

        def inspect(session):
            dead.extend(session._backend.supervisor.dead_workers)

        report, _ = run_fault(
            trace,
            kinds=("crash_loop_worker",),
            overrides=dict(restart_budget=1, health_interval=0.1),
            inspect=inspect,
        )
        report_sink(report)
        assert_sound(report)
        assert dead == [0]
        # The surviving slot carried the rest of the trace: nothing lost.
        assert report.completed >= 1

    def test_deadline_storm_sheds_without_losing_requests(self, seed, report_sink):
        trace = synthesize("soak-storm", seed=seed, num_records=20, rate_rps=400.0)
        report, _ = run_fault(trace, kinds=("deadline_storm",))
        report_sink(report)
        assert_sound(report)
        # The zero-budget window produced deadline outcomes, not losses.
        assert report.deadline_exceeded >= 1
        assert report.failed >= report.deadline_exceeded


class TestFullCatalogueSoak:
    @pytest.mark.parametrize("run", range(SOAK_RUNS))
    def test_soak_run(self, run, seed, report_sink):
        run_seed = seed * 1000 + run
        trace = synthesize(
            f"soak-{run}",
            seed=run_seed,
            num_records=20,
            rate_rps=400.0,
            arrival="poisson" if run % 2 == 0 else "onoff",
            on_ms=15.0,
            off_ms=15.0,
        )
        report, stats = run_fault(
            trace, kinds=FAULT_KINDS, overrides=RESILIENT_OVERRIDES
        )
        report_sink(report, label=f"seed{run_seed}")
        assert_sound(report)
        # Cross-check the replay ledger against the primary backend's own
        # stats.  After control_thread_exception the fallback serves the
        # tail, so the primary may have seen fewer submits than the
        # replayer made — but every one it saw is accounted for.
        assert stats.submitted <= report.submitted
        assert stats.completed + stats.failed + stats.cancelled == stats.submitted


def smoke_trace():
    """The committed smoke trace, its digests recomputed on this machine.

    Result bits depend on the local BLAS, so the committed digests are
    refreshed before a replay verifies against them (``docs/REPLAY.md``).
    """
    trace = read_trace(SMOKE_TRACE)
    trace.refresh_digests()
    return trace


class TestNoFaultAttainment:
    @pytest.mark.parametrize("source", ["synthesized", "committed"])
    def test_cluster_attains_slo_at_smoke_load(self, source, seed, report_sink):
        if source == "committed":
            trace = smoke_trace()
        else:
            trace = synthesize("smoke-attain", seed=seed, num_records=24, rate_rps=200.0)
        session = Session("cluster", config=ServeConfig(workers=2, coalesce=False))
        try:
            report = replay(trace, session, time_scale=1.0)
        finally:
            session.close()
        report_sink(report)
        assert_sound(report)
        assert report.attained, report.summary()
        assert report.attainment >= 0.99


class TestFailoverAttainment:
    def test_degraded_cluster_holds_slo_through_failover(self, report_sink):
        """Acceptance: one slot permanently dead, attainment stays >= 0.95.

        ``restart_budget=0`` retires a worker slot on its first crash;
        with ``failover_floor=2`` the session then routes every new
        submit through the warm threaded fallback, and the committed
        smoke trace must still replay at >= 0.95 SLO attainment.
        """
        import os
        import signal
        import time

        trace = smoke_trace()
        config = ServeConfig(
            workers=2,
            worker_threads=1,
            coalesce=False,
            restart_budget=0,
            health_interval=0.1,
            failover="threaded",
            failover_floor=2,
        )
        session = Session("cluster", config=config)
        try:
            backend = session._backend
            os.kill(backend.worker_pids[0], signal.SIGKILL)
            deadline = time.monotonic() + 60
            while backend.healthy_worker_count >= 2:
                assert time.monotonic() < deadline, "slot was never retired"
                time.sleep(0.02)
            assert session.health()["failover"]["active"] is True
            report = replay(trace, session, time_scale=1.0)
        finally:
            session.close()
        report_sink(report, label="failover")
        assert_sound(report)
        assert report.attainment >= 0.95, report.summary()
