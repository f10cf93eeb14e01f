"""One pipe per worker incarnation: how the parent starts, reads and tears
down each worker's channel, and the threads that leaves running."""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import struct
import threading
import time

import numpy as np
import pytest

from repro import ClusterServer
from repro.cluster import segment_exists
from repro.cluster import server as server_module
from repro.cluster.shm import ShmRing
from repro.formats import COO
from repro.runtime import Request


@pytest.fixture
def spmm():
    """One SpMM whose result (96 x 64 float64) rides the response ring."""
    rng = np.random.default_rng(41)
    dense = np.where(rng.random((96, 128)) < 0.08, rng.standard_normal((96, 128)), 0.0)
    operand = rng.standard_normal((128, 64))
    return "C[m,n] += A[m,k] * B[k,n]", dict(A=COO.from_dense(dense), B=operand), dense @ operand


def test_failed_construction_tears_down_the_workers_it_started(monkeypatch):
    """The third ring fails to create: worker 0 is already running, and
    the constructor stops it and unlinks its rings before it re-raises."""
    created, started = [], []
    create, start_worker = ShmRing.create, ClusterServer._start_worker

    def failing_create(name, capacity):
        if len(created) == 2:
            raise OSError("no space left for the third ring")
        created.append(name)
        return create(name, capacity)

    def recording_start_worker(self, worker_id, incarnation):
        started.append(start_worker(self, worker_id, incarnation))
        return started[-1]

    monkeypatch.setattr(ShmRing, "create", staticmethod(failing_create))
    monkeypatch.setattr(ClusterServer, "_start_worker", recording_start_worker)
    with pytest.raises(OSError, match="third ring"):
        ClusterServer(num_workers=2, worker_threads=1)
    assert [handle.worker_id for handle in started] == [0]
    assert not started[0].process.is_alive()
    assert multiprocessing.active_children() == []
    assert [name for name in created if segment_exists(name)] == []


def test_a_cluster_that_has_served_runs_one_collector_per_worker(mixed_workload, cluster_timeout):
    """After every worker has served, the parent runs the dispatcher, the
    monitor and one collector per worker (no queue feeder threads), and
    each worker runs its main thread alone: it executes what it serves."""
    before = set(threading.enumerate())
    with ClusterServer(num_workers=2, worker_threads=1) as cluster:
        assert all(r.ok for r in cluster.run_batch(mixed_workload, timeout=cluster_timeout))
        assert all(worker.completed > 0 for worker in cluster.stats().per_worker)
        started = sorted(thread.name for thread in set(threading.enumerate()) - before)
        running = [thread.name for thread in threading.enumerate()]
        tasks = [
            len(os.listdir(f"/proc/{pid}/task"))
            for pid in cluster.worker_pids
            if os.path.isdir(f"/proc/{pid}/task")
        ]
    assert started == [
        "cluster-collect-0.0",
        "cluster-collect-1.0",
        "cluster-dispatch",
        "cluster-monitor",
    ]
    assert not [name for name in running if name.startswith("QueueFeeder")]
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("worker thread counts need Linux /proc")
    assert tasks == [1, 1]


def test_a_restart_waits_for_the_response_its_collector_is_decoding(spmm, monkeypatch):
    """A restart that lands while the old incarnation's collector decodes a
    response joins that collector before it closes the rings: the response
    is delivered once, from intact ring bytes, and nothing is requeued."""
    expression, operands, expected = spmm
    decoding, resume = threading.Event(), threading.Event()
    decode_result = server_module.decode_result

    def blocking_decode(ring, descriptor):
        if not decoding.is_set():
            decoding.set()
            resume.wait(60)
        return decode_result(ring, descriptor)

    monkeypatch.setattr(server_module, "decode_result", blocking_decode)
    with ClusterServer(num_workers=1, worker_threads=1) as cluster:
        results = []
        delivered = threading.Event()
        cluster.submit(
            Request(expression, operands, on_done=lambda r: (results.append(r), delivered.set()))
        )
        assert decoding.wait(120), "the response never reached the collector"
        old = cluster._handles[0]
        restart = threading.Thread(target=cluster._restart_worker, args=(0,))
        restart.start()
        restart.join(1.0)
        assert restart.is_alive(), "the restart did not wait for the decoding collector"
        assert segment_exists(old.resp_ring.name) and segment_exists(old.req_ring.name)
        resume.set()
        restart.join(60)
        assert not restart.is_alive()
        assert not segment_exists(old.resp_ring.name)
        assert delivered.wait(60)
        assert cluster._handles[0] is not old
        stats = cluster.stats()
    assert len(results) == 1 and results[0].ok, results[0].error
    np.testing.assert_allclose(results[0].output, expected, atol=1e-8)
    assert stats.requeued == 0 and stats.restarts == 1


def test_a_torn_frame_ends_its_collector_not_the_control_plane(spmm):
    """A worker killed mid-write leaves a length prefix with fewer bytes
    behind it: the collector reads that as EOF and returns, the control
    plane stays up, and the cluster keeps serving."""
    expression, operands, expected = spmm
    with ClusterServer(num_workers=1, worker_threads=1) as cluster:
        conn, worker_end = multiprocessing.Pipe()
        handle = dataclasses.replace(cluster._handles[0], conn=conn, collector=None)
        collector = threading.Thread(target=cluster._collect_loop, args=(handle,))
        collector.start()
        os.write(worker_end.fileno(), struct.pack("!i", 100) + b"\x80" * 10)
        worker_end.close()
        began = time.monotonic()
        collector.join(5.0)
        assert not collector.is_alive() and time.monotonic() - began < 1.0
        conn.close()
        assert cluster._control_error is None
        (result,) = cluster.run_batch([(expression, operands)], timeout=120)
    assert result.ok, result.error
    np.testing.assert_allclose(result.output, expected, atol=1e-8)
