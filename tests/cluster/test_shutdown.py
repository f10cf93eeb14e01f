"""Clean shutdown: no leaked processes, no leaked shared-memory segments."""

from __future__ import annotations

import numpy as np
import pytest

from repro import ClusterServer
from repro.cluster import segment_exists
from repro.formats import COO


@pytest.fixture
def small_request():
    rng = np.random.default_rng(31)
    dense = np.where(rng.random((32, 48)) < 0.15, rng.standard_normal((32, 48)), 0.0)
    fmt = COO.from_dense(dense)
    return "C[m,n] += A[m,k] * B[k,n]", dict(A=fmt, B=rng.standard_normal((48, 4)))


def test_close_unlinks_every_segment(small_request):
    expression, operands = small_request
    cluster = ClusterServer(num_workers=2, worker_threads=1)
    segments = list(cluster.segment_names)
    assert len(segments) == 4  # one request + one response ring per worker
    assert all(segment_exists(name) for name in segments)
    results = cluster.run_batch([(expression, operands)] * 6, timeout=180)
    assert all(result.ok for result in results)
    cluster.close()
    leaked = [name for name in segments if segment_exists(name)]
    assert leaked == [], f"shared-memory segments leaked past close(): {leaked}"


def test_close_drains_in_flight_work_first(small_request, submit_all):
    expression, operands = small_request
    cluster = ClusterServer(num_workers=2, worker_threads=1)
    wait = submit_all(cluster, [(expression, operands)] * 10)
    cluster.close()  # must wait for the 10 requests, then stop
    results = wait(0)  # every completion landed before close() returned
    assert all(result.ok for result in results)


def test_close_returns_with_every_request_in_the_window(small_request, submit_all):
    expression, operands = small_request
    cluster = ClusterServer(num_workers=2, worker_threads=1)
    submit_all(cluster, [(expression, operands)] * 10)
    cluster.close()  # a request leaves the drain count only once accounted
    stats = cluster.stats()
    assert (stats.completed, stats.failed) == (10, 0)


def test_close_is_idempotent_and_submissions_after_close_fail(small_request):
    expression, operands = small_request
    cluster = ClusterServer(num_workers=1, worker_threads=1)
    assert cluster.run_batch([(expression, operands)], timeout=180)[0].ok
    cluster.close()
    cluster.close()  # second close is a no-op
    with pytest.raises(RuntimeError, match="closed"):
        cluster.run_batch([(expression, operands)])


def test_worker_processes_exit_on_close(small_request):
    expression, operands = small_request
    cluster = ClusterServer(num_workers=2, worker_threads=1)
    assert cluster.run_batch([(expression, operands)], timeout=180)[0].ok
    processes = [handle.process for handle in cluster._handles]
    cluster.close()
    assert all(not process.is_alive() for process in processes)


def test_restarted_worker_segments_are_reclaimed(small_request):
    """Segments of a replaced incarnation are unlinked at restart time."""
    import os
    import signal
    import time

    expression, operands = small_request
    cluster = ClusterServer(num_workers=1, worker_threads=1, health_interval=0.05)
    try:
        assert cluster.run_batch([(expression, operands)], timeout=180)[0].ok
        old_segments = list(cluster.segment_names)
        old_pid = cluster.worker_pids[0]
        os.kill(old_pid, signal.SIGKILL)
        deadline = time.monotonic() + 30
        while cluster.worker_pids[0] == old_pid:
            assert time.monotonic() < deadline, "worker was never replaced"
            time.sleep(0.05)
        assert cluster.run_batch([(expression, operands)], timeout=180)[0].ok
        assert not any(segment_exists(name) for name in old_segments)
        new_segments = list(cluster.segment_names)
        assert set(new_segments).isdisjoint(old_segments)
    finally:
        cluster.close()
    assert not any(segment_exists(name) for name in cluster.segment_names)
