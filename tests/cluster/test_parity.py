"""ClusterServer result parity with the threaded InsumServer."""

from __future__ import annotations

import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import ClusterServer, InsumServer
from repro.errors import IndexOutOfBoundsError
from repro.formats import GroupCOO
from repro.runtime import Request
from repro.runtime.server import InlineBackend


def test_mixed_workload_parity(mixed_workload, cluster_workers, cluster_timeout):
    """The cluster serves the mixed workload bit for bit as the threaded
    server does."""
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

    # The pool-level report accounts for every request exactly once.
    assert stats.completed == len(mixed_workload)
    assert stats.failed == 0
    assert stats.workers == cluster_workers
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
    """A malformed expression or an index out of range errors per-request;
    the pool keeps serving."""
    expression, operands = mixed_workload[0]
    out_of_range = dict(C=np.zeros((4, 2)), AV=np.ones(2), AM=np.arange(2), B=np.ones((8, 2)))
    out_of_range["AK"] = np.array([0, 99])
    with ClusterServer(num_workers=1, worker_threads=1) as cluster:
        *bad_results, good_result = cluster.run_batch(
            [
                ("this is not an einsum", dict(x=np.zeros(3))),
                ("C[AM[p],n] += AV[p] * B[AK[p],n]", out_of_range),
                (expression, operands),
            ],
            timeout=cluster_timeout,
        )
        assert not any(result.ok for result in bad_results)
        assert isinstance(bad_results[1].error, IndexOutOfBoundsError)
        assert good_result.ok
        stats = cluster.stats()
        assert stats.failed == 2
        assert stats.restarts == 0


class SlowPipe:
    """A worker pipe whose every write first sleeps for a millisecond."""

    def __init__(self, conn):
        self._conn = conn

    def send(self, message):
        time.sleep(1e-3)
        self._conn.send(message)

    def __getattr__(self, name):
        return getattr(self._conn, name)


@pytest.mark.parametrize("num_workers", [1, 2])
def test_concurrent_submitters_match_inline_bit_for_bit(num_workers, cluster_timeout):
    """Eight threads submit at once, sharing each step's sparse instance and
    pair of index arrays and refilling a buffer of their own in place
    between requests: every result equals the inline tier's bit for bit.

    Each submitting thread encodes for itself, so an operand cache entry the
    threads share is stored by one envelope and referenced by others: the
    worker replays them correctly only if each incarnation's encode and send
    happen under one lock, in pipe order.  Integer values keep the sums
    exact in any order.  Each pipe write is slowed by a millisecond, which
    widens the window a missing lock would leave between encode and send,
    and a short GIL switch interval interleaves the threads inside it."""
    generator = np.random.default_rng(43)

    def integers(shape):
        return generator.integers(-4, 5, shape).astype(np.float64)

    threads, steps = 8, 12
    shared = [
        GroupCOO.from_dense(
            np.where(generator.random((64, 96)) < 0.1, integers((64, 96)), 0.0), group_size=4
        )
        for _ in range(steps)
    ]
    indices = [
        (generator.integers(0, 32, 300), generator.integers(0, 48, 300)) for _ in range(steps)
    ]
    spmm, indirect = "C[m,n] += A[m,k] * B[k,n]", "C[AM[p],n] += AV[p] * B[AK[p],n]"
    values = [
        [(integers((96, 8)), integers(300), integers((48, 4))) for _ in range(steps)]
        for _ in range(threads)
    ]

    def request(thread, step, buffer):
        dense, av, b = values[thread][step]
        kind = (thread + step) % 3
        if kind == 1:
            rows, cols = indices[step]
            return indirect, dict(C=np.zeros((32, 4)), AV=av, AM=rows, AK=cols, B=b)
        if kind == 2:
            buffer[...] = dense
            dense = buffer
        return spmm, dict(A=shared[step], B=dense)

    expected = InlineBackend().run_batch(
        [request(t, s, np.empty((96, 8))) for t in range(threads) for s in range(steps)]
    )
    assert all(result.ok for result in expected)

    with ClusterServer(num_workers=num_workers, worker_threads=1) as cluster:

        def serve(thread):
            buffer, outputs = np.empty((96, 8)), []
            for step in range(steps):
                landed = threading.Event()
                box = []
                expression, operands = request(thread, step, buffer)
                cluster.submit(
                    Request(expression, operands, on_done=lambda r: (box.append(r), landed.set()))
                )
                assert landed.wait(cluster_timeout), "a request never resolved"
                outputs.append(box[0].unwrap())
            return outputs

        for handle in cluster._handles:
            handle.conn = SlowPipe(handle.conn)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(threads) as pool:
                outputs = list(pool.map(serve, range(threads)))
        finally:
            sys.setswitchinterval(interval)
        assert cluster.stats().completed == threads * steps
    actual = [output for thread_outputs in outputs for output in thread_outputs]
    for reference, output in zip(expected, actual):
        np.testing.assert_array_equal(reference.unwrap(), output)
