"""Open-loop runner behaviour: SLO accounting, verification, merging."""

import json

import pytest

from repro.obs.metrics import get_registry
from repro.replay import SLOTarget, read_trace, replay, replay_file, synthesize
from repro.serve import ServeConfig, Session


@pytest.fixture
def inline_session():
    session = Session("inline")
    yield session
    session.close()


class TestInlineReplay:
    def test_attains_and_verifies(self, small_trace, inline_session, seed):
        report = replay(small_trace, inline_session, time_scale=0.0)
        assert report.submitted == len(small_trace)
        assert report.completed == len(small_trace)
        assert report.failed == report.cancelled == 0
        assert report.attained
        assert report.digest_checked == len(small_trace)
        assert report.digest_mismatches == 0
        assert report.invariant_violations() == []
        assert report.seed == seed

    def test_per_tenant_breakdown_sums(self, small_trace, inline_session):
        report = replay(small_trace, inline_session, time_scale=0.0)
        assert set(report.per_tenant) == set(small_trace.tenants())
        assert sum(t["submitted"] for t in report.per_tenant.values()) == report.submitted

    def test_latency_summary_uses_canonical_percentiles(self, small_trace, inline_session):
        from repro.utils.timing import summarize

        report = replay(small_trace, inline_session, time_scale=0.0)
        recomputed = summarize(report.samples_ms)
        assert report.latency == recomputed

    def test_slo_breach_detected(self, seed, inline_session):
        # An impossible latency target: everything completes, nothing attains.
        trace = synthesize(
            "breach",
            seed=seed,
            num_records=8,
            slo=SLOTarget(latency_ms=1e-6, attainment_target=0.99),
        )
        report = replay(trace, inline_session, time_scale=0.0)
        assert report.completed == 8
        assert report.attainment == 0.0
        assert not report.attained
        assert report.invariant_violations() == []  # missing SLO is not a bug

    def test_paced_replay_respects_offsets(self, seed, inline_session):
        trace = synthesize("paced", seed=seed, num_records=6, rate_rps=200.0, arrival="uniform")
        report = replay(trace, inline_session, time_scale=1.0)
        # Five 5 ms gaps => at least 25 ms of wall time.
        assert report.wall_seconds >= 0.025
        assert report.attained

    def test_registry_counters_updated(self, small_trace, inline_session):
        registry = get_registry()
        counters = [
            registry.counter(
                "replay_requests_total", backend="inline", outcome="ok", tenant=tenant
            )
            for tenant in small_trace.tenants()
        ]
        before = sum(counter.value() for counter in counters)
        replay(small_trace, inline_session, time_scale=0.0)
        after = sum(counter.value() for counter in counters)
        assert after >= before + small_trace.header.records


class TestVerifyModes:
    def test_auto_verifies_threaded_backend(self, small_trace):
        session = Session("threaded", config=ServeConfig(workers=2))
        try:
            report = replay(small_trace, session, time_scale=0.0)
        finally:
            session.close()
        assert report.digest_checked == len(small_trace)
        assert report.digest_mismatches == 0
        assert report.completed == len(small_trace)

    def test_auto_verifies_one_worker_threaded(self, small_trace):
        session = Session("threaded", config=ServeConfig(workers=1))
        try:
            report = replay(small_trace, session, time_scale=0.0)
        finally:
            session.close()
        assert report.digest_checked == len(small_trace)
        assert report.digest_mismatches == 0

    def test_force_off(self, small_trace, inline_session):
        report = replay(small_trace, inline_session, time_scale=0.0, verify=False)
        assert report.digest_checked == 0

    def test_bad_verify_value(self, small_trace, inline_session):
        with pytest.raises(ValueError, match="verify"):
            replay(small_trace, inline_session, verify="maybe")


class TestMixedBackends:
    def test_split_trace_merges_with_stats_parity(self, small_trace):
        half = len(small_trace) // 2
        first, second = small_trace.subset(0, half), small_trace.subset(half)

        inline = Session("inline")
        threaded = Session("threaded", config=ServeConfig(workers=2))
        try:
            report_a = replay(first, inline, time_scale=0.0)
            report_b = replay(second, threaded, time_scale=0.0)
            stats_a, stats_b = inline.stats(), threaded.stats()
        finally:
            inline.close()
            threaded.close()

        merged = report_a.merge(report_b)
        assert merged.submitted == len(small_trace)
        assert merged.backend == "inline+threaded"
        assert merged.invariant_violations() == []
        # The merged report must agree with the per-session ServeStats.
        assert merged.completed == stats_a.completed + stats_b.completed
        assert merged.failed == stats_a.failed + stats_b.failed
        assert merged.cancelled == stats_a.cancelled + stats_b.cancelled
        assert merged.submitted == stats_a.submitted + stats_b.submitted
        # Per-tenant totals survive the merge.
        assert sum(t["submitted"] for t in merged.per_tenant.values()) == merged.submitted


class TestReportArtifacts:
    def test_to_dict_and_save(self, small_trace, inline_session, tmp_path):
        report = replay(small_trace, inline_session, time_scale=0.0)
        path = report.save(tmp_path / "report.json")
        payload = json.loads(path.read_text())
        assert payload["slo_attainment"] == pytest.approx(report.attainment)
        assert payload["submitted"] == report.submitted
        assert payload["invariant_violations"] == []
        assert payload["latency_ms"]["p99"] >= payload["latency_ms"]["p50"]

    def test_summary_is_readable(self, small_trace, inline_session):
        report = replay(small_trace, inline_session, time_scale=0.0)
        text = report.summary()
        assert "ATTAINED" in text
        assert "p50/p95/p99" in text


class TestReplayFile:
    def test_round_trip_through_file(self, small_trace, tmp_path):
        path = small_trace.save(tmp_path / "trace.jsonl")
        report = replay_file(path, backend="inline", time_scale=0.0)
        assert report.attained
        assert report.digest_checked == len(small_trace)

    def test_refresh_digests_recomputes(self, small_trace, tmp_path):
        path = small_trace.save(tmp_path / "trace.jsonl")
        # Corrupt the stored digests, as a trace from another machine
        # (different BLAS) effectively is; refresh must fix them.
        doctored = read_trace(path)
        for record in doctored.records:
            record.digest = "sha256:" + "0" * 64
        doctored.save(path)
        report = replay_file(path, backend="inline", time_scale=0.0, refresh_digests=True)
        assert report.digest_mismatches == 0
        assert report.digest_checked == len(small_trace)
