"""The cluster's measurement window: what a reset clears, and that reporting
never talks to a worker."""

from __future__ import annotations

from repro.cluster.server import ClusterServer
from repro.runtime import clear_plan_cache
from repro.serve import ServeConfig, Session


def test_reset_on_a_warm_cluster_reports_only_the_next_pass(mixed_workload, cluster_timeout):
    """Warm up, ``reset_stats()``, serve the same pass again: the report is
    that pass alone — every plan already compiled, nothing left over from
    the warm-up in any counter (the sequence ``benchmarks/layers`` runs).
    The plan cache is cleared first: forked workers inherit the parent's, so
    plans an earlier test compiled would make the warm-up all hits.  No
    key spills: a key that first spilled in the second pass would compile
    on a worker the warm-up never sent it to, and how deep a worker's
    backlog gets depends on the host's speed."""
    clear_plan_cache()
    with ClusterServer(num_workers=2, worker_threads=1) as cluster:
        cluster.router.spill_threshold = len(mixed_workload) + 1
        assert all(r.ok for r in cluster.run_batch(mixed_workload, timeout=cluster_timeout))
        warm = cluster.stats()
        assert warm.cache_misses > 0
        cluster.reset_stats()
        empty = cluster.stats()
        assert (empty.submitted, empty.cache_hits, empty.cache_misses) == (0, 0, 0)
        assert empty.wall_seconds == 0.0
        assert all(r.ok for r in cluster.run_batch(mixed_workload, timeout=cluster_timeout))
        stats = cluster.stats()
    assert stats.completed == len(mixed_workload) and stats.failed == stats.cancelled == 0
    assert stats.cache_misses == 0 and stats.cache_hits > 0
    assert stats.requeued == stats.restarts == stats.rejected == 0
    assert sum(worker.completed for worker in stats.per_worker) == len(mixed_workload)
    assert 0 < stats.p50_latency_ms <= stats.max_latency_ms


def test_reporting_puts_nothing_on_a_request_queue(mixed_workload, monkeypatch):
    """``stats()``, ``reset_stats()`` and a metrics scrape are answered from
    the parent's own window: no message to a worker, so nothing to wait on."""
    config = ServeConfig(workers=2, worker_threads=1)
    with Session(backend="cluster", config=config) as session:
        for future in session.submit_many(mixed_workload[:8]):
            future.result(timeout=120)
        sent = []
        with monkeypatch.context() as patch:  # undone before close() sends its "stop"
            for handle in session._backend._handles:
                patch.setattr(handle.conn, "send", sent.append)
            assert session.stats().completed == 8
            session.publish_metrics()
            session.reset_stats()
            assert session.stats().completed == 0
        assert sent == []
