"""Shared fixtures for the cluster test suite.

Two flakiness guards live here.  Worker counts and collect timeouts
derive from ``os.cpu_count()`` with a floor, so the suite neither
oversubscribes a 2-core CI runner nor under-exercises a wide box.  And
an autouse fixture tracks every shared-memory ring any test's
``ClusterServer`` creates, asserting at teardown that all of them were
unlinked — the shutdown suite's leak check, extended to every cluster
test (soak-style tests that crash workers mid-flight are exactly where
a leak would hide).
"""

from __future__ import annotations

import os
import threading

import numpy as np
import pytest

from repro.cluster import segment_exists
from repro.cluster.server import ClusterServer
from repro.formats import COO, GroupCOO
from repro.runtime import Request
from repro.kernels import FullyConnectedTensorProduct
from repro.utils.rng import rng

CPU_COUNT = os.cpu_count() or 2

#: Worker-process count for multi-worker tests: at least 2 (the parity
#: and affinity tests need real distribution), at most 4, and never more
#: than the machine minus one core for the driver.
CLUSTER_WORKERS = max(2, min(4, CPU_COUNT - 1))

#: Collect timeout scaled to how contended the machine likely is: the
#: floor covers a quiet wide box, the scale covers 2-core CI runners
#: where every worker shares a core with the driver.
CLUSTER_TIMEOUT = 60.0 * max(1.0, 4.0 / CPU_COUNT) + 30.0 * CLUSTER_WORKERS


@pytest.fixture(scope="session")
def cluster_workers() -> int:
    """CPU-derived worker count (floor 2, cap 4)."""
    return CLUSTER_WORKERS


@pytest.fixture(scope="session")
def cluster_timeout() -> float:
    """CPU-derived collect/run timeout in seconds."""
    return CLUSTER_TIMEOUT


@pytest.fixture(scope="session")
def submit_all():
    """``submit_all(tier, requests) -> wait(timeout)``: the non-blocking half
    of ``run_batch``, for tests that must act while requests are in flight.

    Submits every ``(expression, operands)`` pair through the backend
    protocol and returns a function that waits for all of them and
    returns their results in request order.
    """

    def submit(tier, requests):
        results: dict[int, object] = {}
        landed = threading.Semaphore(0)

        def store(index, result):
            results[index] = result
            landed.release()

        count = 0
        for index, (expression, operands) in enumerate(requests):
            tier.submit(
                Request(expression, operands, on_done=lambda r, i=index: store(i, r))
            )
            count += 1

        def wait(timeout):
            for _ in range(count):
                assert landed.acquire(timeout=timeout), "requests still in flight at timeout"
            return [results[index] for index in range(count)]

        return wait

    return submit


@pytest.fixture(autouse=True)
def assert_no_leaked_segments(monkeypatch):
    """Fail any cluster test that leaves a shm segment linked behind.

    Wraps ``ClusterServer._start_worker`` to record every ring segment
    created during the test (including rings of restarted workers, which
    the shutdown-suite spot check could not see), then asserts at
    teardown that none still exists.
    """
    created: list[str] = []
    original = ClusterServer._start_worker

    def tracking(self, worker_id, incarnation):
        handle = original(self, worker_id, incarnation)
        created.extend([handle.req_ring.name, handle.resp_ring.name])
        return handle

    monkeypatch.setattr(ClusterServer, "_start_worker", tracking)
    yield
    leaked = [name for name in created if segment_exists(name)]
    assert leaked == [], f"cluster test leaked shm segments: {leaked}"


@pytest.fixture(scope="module")
def mixed_workload(seed):
    """A small mixed serving workload: SpMM/SpMV traffic + equivariant.

    Mirrors the layer benchmark's serving mix — repeated logical
    expressions over long-lived sparse patterns with fresh dense values
    (the coalescing sweet spot), plus a raw indirect Einsum every 8th
    request — at test-suite size.  All draws come from named
    ``repro.utils.rng`` streams of the session seed.
    """
    patterns = rng(seed, "cluster-workload/patterns")
    values = rng(seed, "cluster-workload/values")
    spmm = GroupCOO.from_dense(
        np.where(patterns.random((64, 96)) < 0.08, patterns.standard_normal((64, 96)), 0.0),
        group_size=4,
    )
    spmv = COO.from_dense(
        np.where(patterns.random((48, 48)) < 0.1, patterns.standard_normal((48, 48)), 0.0)
    )
    equivariant = FullyConnectedTensorProduct(l_max=1, channels=4)
    x, y, w = equivariant.random_inputs(batch=2, rng=patterns)
    z = np.zeros((2, equivariant.slot_dimension, equivariant.channels))
    recipes = [
        ("C[m,n] += A[m,k] * B[k,n]", lambda: dict(A=spmm, B=values.standard_normal((96, 8)))),
        ("y[m] += A[m,k] * x[k]", lambda: dict(A=spmv, x=values.standard_normal(48))),
        (
            equivariant.expression,
            lambda: dict(Z=z.copy(), X=x, Y=y, W=w, **equivariant._grouped),
        ),
    ]
    pattern = [0, 0, 1, 0, 0, 1, 0, 2]
    return [
        (recipes[pattern[i % len(pattern)]][0], recipes[pattern[i % len(pattern)]][1]())
        for i in range(48)
    ]
