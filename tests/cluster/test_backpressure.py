"""Admission control: bounded in-flight work with explicit backpressure."""

from __future__ import annotations

import numpy as np
import pytest

from repro import ClusterBusyError, ClusterServer
from repro.cluster.admission import AdmissionController
from repro.formats import COO
from repro.serve import ServeConfig, Session
from repro.utils.rng import rng


@pytest.fixture
def heavy_request(seed):
    """One reasonably expensive SpMM request (compile + a real contraction)."""
    generator = rng(seed, "backpressure/heavy")
    dense = np.where(
        generator.random((256, 256)) < 0.05, generator.standard_normal((256, 256)), 0.0
    )
    fmt = COO.from_dense(dense)
    return lambda: (
        "C[m,n] += A[m,k] * B[k,n]",
        dict(A=fmt, B=generator.standard_normal((256, 32))),
    )


def test_reject_policy_sheds_load_with_retry_after(heavy_request, cluster_timeout):
    """Over-limit submissions fail fast and carry a retry_after estimate."""
    with ClusterServer(
        num_workers=1, worker_threads=1, max_inflight=2, admission="reject"
    ) as cluster:
        results = cluster.run_batch(
            [heavy_request() for _ in range(12)], timeout=cluster_timeout
        )
        rejections = [result.error for result in results if not result.ok]
        assert rejections, "submitting 12 requests over a bound of 2 must shed load"
        for error in rejections:
            assert isinstance(error, ClusterBusyError)
            assert error.retry_after > 0
            assert error.limit == 2
        # Everything that *was* admitted completes normally.
        assert len(results) - len(rejections) >= 2
        assert cluster.stats().rejected == len(rejections)


def test_block_policy_applies_backpressure_not_errors(heavy_request, cluster_timeout):
    """The default policy makes submit() wait instead of failing."""
    with ClusterServer(
        num_workers=1, worker_threads=1, max_inflight=2, admission="block"
    ) as cluster:
        requests = [heavy_request() for _ in range(8)]
        # Submission blocks as needed, never rejects.
        results = cluster.run_batch(requests, timeout=cluster_timeout)
        assert all(result.ok for result in results)
        assert cluster.stats().rejected == 0
        assert cluster.admission.inflight == 0


def test_admission_controller_unit():
    """The gate's counting, rejection, and release bookkeeping."""
    gate = AdmissionController(max_inflight=2, policy="reject")
    gate.acquire()
    gate.acquire()
    with pytest.raises(ClusterBusyError) as excinfo:
        gate.acquire()
    assert excinfo.value.retry_after > 0
    assert gate.rejected == 1
    gate.release(service_seconds=0.05)
    gate.acquire()  # capacity freed
    assert gate.inflight == 2
    gate.release()
    gate.release()
    assert gate.inflight == 0
    with pytest.raises(ValueError):
        AdmissionController(max_inflight=0)
    with pytest.raises(ValueError):
        AdmissionController(policy="drop")


def test_block_policy_rejects_once_block_timeout_runs_out():
    """Blocking is bounded: at capacity for ``block_timeout``, acquire gives up."""
    gate = AdmissionController(max_inflight=1, policy="block", block_timeout=0.02)
    gate.acquire()
    with pytest.raises(ClusterBusyError) as excinfo:
        gate.acquire()  # waits out the 20 ms, then rejects
    assert (excinfo.value.inflight, excinfo.value.limit) == (1, 1)
    assert (gate.rejected, gate.inflight) == (1, 1)
    gate.release()
    gate.acquire()  # capacity freed: admitted without waiting it out


def test_serve_config_block_timeout_reaches_the_gate():
    """``ServeConfig(block_timeout=...)`` is the cluster gate's bound, end to end."""
    config = ServeConfig(workers=1, worker_threads=1, max_inflight=1, block_timeout=0.02)
    with Session("cluster", config=config) as session:
        gate = session._backend.admission
        assert (gate.policy, gate.block_timeout) == ("block", 0.02)
        gate.acquire()  # hold the only slot: the next submit can only time out
        try:
            with pytest.raises(ClusterBusyError):
                session.submit(
                    "y[m] += A[m,k] * x[k]", y=np.zeros(2), A=np.eye(2), x=np.ones(2)
                ).result(timeout=60)
        finally:
            gate.release()
