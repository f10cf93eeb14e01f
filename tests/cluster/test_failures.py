"""Worker-crash handling: health checks, restart, and in-flight requeue."""

from __future__ import annotations

import os
import signal
import time

import numpy as np
import pytest

from repro import ClusterServer
from repro.cluster.server import WorkerCrashedError
from repro.errors import ControlThreadError
from repro.formats import COO
from repro.runtime import Request


@pytest.fixture
def pattern():
    rng = np.random.default_rng(11)
    dense = np.where(rng.random((96, 128)) < 0.08, rng.standard_normal((96, 128)), 0.0)
    return dense, COO.from_dense(dense)


def test_crash_restart_and_requeue(pattern, submit_all):
    """SIGKILL mid-flight: every request still completes, on a new worker."""
    dense, fmt = pattern
    rng = np.random.default_rng(12)
    with ClusterServer(num_workers=2, worker_threads=1, health_interval=0.05) as cluster:
        # Warm the route so the kill target is the worker owning the key.
        warm = cluster.run_batch(
            [("C[m,n] += A[m,k] * B[k,n]", dict(A=fmt, B=rng.standard_normal((128, 8))))],
            timeout=180,
        )
        assert warm[0].ok
        victims = list(cluster.worker_pids)
        operand_sets = [rng.standard_normal((128, 8)) for _ in range(60)]
        wait = submit_all(
            cluster,
            (("C[m,n] += A[m,k] * B[k,n]", dict(A=fmt, B=operand)) for operand in operand_sets),
        )
        os.kill(victims[0], signal.SIGKILL)
        results = wait(120)
        assert all(result.ok for result in results), [
            result.error for result in results if not result.ok
        ][:1]
        for operand, result in zip(operand_sets, results):
            np.testing.assert_allclose(result.unwrap(), dense @ operand, atol=1e-8)
        # The killed slot is running a fresh process.  Every result can land
        # before the monitor notices the death, so wait for the restart.
        deadline = time.monotonic() + 30
        while cluster.worker_pids[0] == victims[0]:
            assert time.monotonic() < deadline, "worker was never replaced"
            time.sleep(0.05)
        assert cluster.stats().restarts >= 1
        assert all(pid is not None for pid in cluster.worker_pids)

        # The pool still serves after the restart.
        after = cluster.run_batch(
            [("C[m,n] += A[m,k] * B[k,n]", dict(A=fmt, B=rng.standard_normal((128, 8))))],
            timeout=180,
        )
        assert after[0].ok


def test_two_consecutive_crashes_recover(pattern, submit_all):
    """The monitor keeps replacing workers as long as crashes keep coming."""
    _, fmt = pattern
    rng = np.random.default_rng(13)
    with ClusterServer(num_workers=2, worker_threads=1, health_interval=0.05) as cluster:
        for _ in range(2):
            pids = list(cluster.worker_pids)
            wait = submit_all(
                cluster,
                (
                    ("C[m,n] += A[m,k] * B[k,n]", dict(A=fmt, B=rng.standard_normal((128, 4))))
                    for _ in range(20)
                ),
            )
            os.kill(pids[0], signal.SIGKILL)
            results = wait(120)
            assert all(result.ok for result in results)
            deadline = time.monotonic() + 30
            while cluster.worker_pids[0] == pids[0]:
                assert time.monotonic() < deadline, "worker was never replaced"
                time.sleep(0.05)
        assert cluster.stats().restarts >= 2


@pytest.mark.parametrize("restart_budget", [0, 8], ids=["slot-retired", "worker-restarted"])
def test_window_counters_outlive_the_worker_that_earned_them(pattern, restart_budget):
    """SIGKILL the worker that served the window: what it counted stays counted.

    The interior counters ride on the responses and the parent keeps the
    last it saw, so inside one window nothing the report sums ever goes
    down — not when the slot is retired for good (``restart_budget=0``),
    not when a fresh incarnation starts counting from zero — and the
    per-worker completions always add up to ``completed``.
    """
    _, fmt = pattern
    rng = np.random.default_rng(15)

    def serve(cluster, count):
        results = cluster.run_batch(
            [
                ("C[m,n] += A[m,k] * B[k,n]", dict(A=fmt, B=rng.standard_normal((128, 8))))
                for _ in range(count)
            ],
            timeout=180,
        )
        assert all(result.ok for result in results)
        stats = cluster.stats()
        assert sum(worker.completed for worker in stats.per_worker) == stats.completed
        return stats

    def interior(stats):
        lookups = stats.cache_hits + stats.cache_misses
        return (lookups, stats.coalesced_requests, stats.coalesced_batches)

    with ClusterServer(
        num_workers=2, worker_threads=1, health_interval=0.05, restart_budget=restart_budget
    ) as cluster:
        before = serve(cluster, 8)
        assert before.completed == 8 and interior(before)[0] > 0
        (owner,) = [slot for slot in range(2) if before.per_worker[slot].completed]
        victim = cluster.worker_pids[owner]
        os.kill(victim, signal.SIGKILL)
        deadline = time.monotonic() + 30
        while not (cluster.supervisor.dead_workers or cluster.worker_pids[owner] != victim):
            assert time.monotonic() < deadline, "the crash was never noticed"
            time.sleep(0.02)
        after = cluster.stats()
        assert (after.completed, interior(after)) == (8, interior(before))
        assert [worker.completed for worker in after.per_worker] == [
            worker.completed for worker in before.per_worker
        ]
        final = serve(cluster, 4)  # whoever serves now counts on top
        assert final.completed == 12
        assert all(now >= then for now, then in zip(interior(final), interior(after)))
        assert interior(final)[0] > interior(after)[0]


def test_requeue_gives_up_after_max_attempts():
    """A request that keeps dying completes with WorkerCrashedError."""
    with ClusterServer(num_workers=1, worker_threads=1, max_attempts=2) as cluster:
        (result,) = cluster.run_batch(
            [("y[m] += A[m,k] * x[k]", dict(y=np.zeros(2), A=np.zeros((2, 2)), x=np.zeros(2)))],
            timeout=60,
        )
        assert result.ok  # sanity: a healthy request is fine
        # Drive the requeue path directly: a request at the attempt
        # ceiling must produce a terminal error, not another dispatch.
        landed = []
        doomed = Request("y[m] += A[m,k] * x[k]", {}, on_done=landed.append)
        cluster.admission.acquire()
        with cluster._state:
            cluster._unfinished += 1
        doomed.accept(10_000)
        doomed.dispatches = 1
        cluster._requeue(doomed, exclude_worker=None)
        (lost,) = landed
        assert not lost.ok
        assert isinstance(lost.error, WorkerCrashedError)


def test_requeue_after_control_plane_containment_fails_the_request():
    """A crash requeue that loses the race with containment must not wait in
    a dispatch queue whose dispatcher is dead: containment clears that queue
    once, so the request would never resolve (``Session.close`` then hangs)."""
    with ClusterServer(num_workers=1, worker_threads=1) as cluster:
        landed = []
        stranded = Request("y[m] += A[m,k] * x[k]", {}, on_done=landed.append)
        cluster.admission.acquire()
        with cluster._state:
            cluster._unfinished += 1
        stranded.accept(10_000)
        cluster._control_thread_failed("dispatcher", RuntimeError("injected"))
        cluster._requeue(stranded, exclude_worker=0, crashed=True)
        (lost,) = landed
        assert not lost.ok
        assert isinstance(lost.error, ControlThreadError)
        assert not cluster._dispatch


@pytest.mark.skipif(not hasattr(signal, "SIGSTOP"), reason="needs SIGSTOP to wedge a worker")
def test_wedged_worker_is_replaced_by_heartbeat_timeout(pattern, submit_all):
    """SIGSTOP: the process stays alive but stops beating — only
    ``heartbeat_timeout`` can notice.  The slot is replaced and every
    request lands on the survivor or the replacement.

    An idle worker beats once per 1 s queue poll, so the timeout sits a
    full second above that; a tighter one would retire healthy workers.
    """
    dense, fmt = pattern
    rng = np.random.default_rng(14)
    with ClusterServer(
        num_workers=2, worker_threads=1, health_interval=0.05, heartbeat_timeout=2.0
    ) as cluster:
        # Warm the route so the wedged worker is the one owning the key.
        warm = cluster.run_batch(
            [("C[m,n] += A[m,k] * B[k,n]", dict(A=fmt, B=rng.standard_normal((128, 8))))],
            timeout=180,
        )
        assert warm[0].ok
        before = list(cluster.worker_pids)
        os.kill(before[0], signal.SIGSTOP)
        operand_sets = [rng.standard_normal((128, 8)) for _ in range(12)]
        wait = submit_all(
            cluster,
            (("C[m,n] += A[m,k] * B[k,n]", dict(A=fmt, B=operand)) for operand in operand_sets),
        )
        results = wait(120)
        assert all(result.ok for result in results), [
            result.error for result in results if not result.ok
        ][:1]
        for operand, result in zip(operand_sets, results):
            np.testing.assert_allclose(result.unwrap(), dense @ operand, atol=1e-8)
        assert cluster.stats().restarts == 1
        after = list(cluster.worker_pids)
        assert after[0] is not None and after[0] != before[0]
        assert after[1] == before[1]  # the healthy worker was left alone
        # The stopped process ignored SIGTERM; teardown escalated to SIGKILL.
        with pytest.raises(ProcessLookupError):
            os.kill(before[0], 0)
