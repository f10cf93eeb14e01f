"""ClusterServer result parity with the threaded InsumServer."""

from __future__ import annotations

import numpy as np

from repro import ClusterServer, InsumServer


def test_mixed_workload_parity(mixed_workload, cluster_workers, cluster_timeout):
    """The cluster serves the mixed workload bit for bit as the threaded
    server does, coalesced or not."""
    with InsumServer(num_workers=cluster_workers) as threaded:
        expected = threaded.run_batch(mixed_workload)
    with ClusterServer(num_workers=cluster_workers, worker_threads=1) as cluster:
        actual = cluster.run_batch(mixed_workload, timeout=cluster_timeout)
        stats = cluster.stats()

    assert all(result.ok for result in expected)
    assert all(result.ok for result in actual), [
        result.error for result in actual if not result.ok
    ][:1]
    for reference, result in zip(expected, actual):
        np.testing.assert_array_equal(reference.unwrap(), result.unwrap())

    # The pool-level report accounts for every request exactly once, and
    # worker-side coalescing survived the process boundary.
    assert stats.completed == len(mixed_workload)
    assert stats.failed == 0
    assert stats.workers == cluster_workers
    assert stats.coalesced_requests > 0
    assert sum(worker.completed for worker in stats.per_worker) == len(mixed_workload)


def test_affinity_spreads_distinct_patterns(mixed_workload, cluster_workers, cluster_timeout):
    """Distinct expression+pattern keys land on distinct workers."""
    with ClusterServer(num_workers=cluster_workers, worker_threads=1) as cluster:
        results = cluster.run_batch(mixed_workload, timeout=cluster_timeout)
        stats = cluster.stats()
    assert all(result.ok for result in results)
    busy_workers = [worker for worker in stats.per_worker if worker.completed > 0]
    # Three distinct expression+pattern keys in the workload: at least
    # two workers must share the load however many workers the box has.
    assert len(busy_workers) >= 2


def test_bad_request_is_an_error_not_a_crash(mixed_workload, cluster_timeout):
    """A malformed expression errors per-request; the pool keeps serving."""
    expression, operands = mixed_workload[0]
    with ClusterServer(num_workers=1, worker_threads=1) as cluster:
        bad_result, good_result = cluster.run_batch(
            [("this is not an einsum", dict(x=np.zeros(3))), (expression, operands)],
            timeout=cluster_timeout,
        )
        assert not bad_result.ok
        assert good_result.ok
        stats = cluster.stats()
        assert stats.failed == 1
        assert stats.restarts == 0
