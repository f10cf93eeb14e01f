"""The unified error taxonomy and batch atomicity under admission.

Every serving failure derives from :class:`repro.ServeError`, surfaces
uniformly through :meth:`Future.result`, and a mid-batch admission
rejection fails only the rejected requests instead of leaking in-flight
work.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro import (
    ClusterBusyError,
    FutureCancelledError,
    ServeError,
    SessionClosedError,
    WorkerCrashedError,
)
from repro.errors import IndexOutOfBoundsError, ReproError
from repro.serve import ServeConfig, ServeConfigError, Session

SPMM_EXPR = "C[m,n] += A[m,k] * B[k,n]"


def test_taxonomy_roots_and_compatibility():
    for exc_type in (
        ClusterBusyError,
        WorkerCrashedError,
        FutureCancelledError,
        SessionClosedError,
        ServeConfigError,
    ):
        assert issubclass(exc_type, ServeError)
        assert issubclass(exc_type, ReproError)
    # Pre-taxonomy code caught these as RuntimeError; that must keep working.
    assert issubclass(ClusterBusyError, RuntimeError)
    assert issubclass(WorkerCrashedError, RuntimeError)
    assert issubclass(SessionClosedError, RuntimeError)
    assert issubclass(ServeConfigError, ValueError)
    # And all of them are importable from the package root.
    for name in (
        "ServeError",
        "ClusterBusyError",
        "WorkerCrashedError",
        "FutureCancelledError",
        "SessionClosedError",
    ):
        assert name in repro.__all__


def test_legacy_import_locations_still_resolve():
    from repro.cluster.admission import ClusterBusyError as from_admission
    from repro.cluster.server import WorkerCrashedError as from_server

    assert from_admission is ClusterBusyError
    assert from_server is WorkerCrashedError


def test_cluster_run_batch_fails_only_the_rejected_requests(spmm_operands):
    """A mid-batch admission rejection is a failed result in place."""
    from repro.cluster.server import ClusterServer

    with ClusterServer(
        num_workers=1, worker_threads=1, admission="reject", max_inflight=1
    ) as cluster:
        results = cluster.run_batch([(SPMM_EXPR, dict(spmm_operands))] * 12, timeout=120)
        assert len(results) == 12  # the accepted ones complete: nothing is stranded
        assert results[0].ok
        rejected = [result.error for result in results if not result.ok]
        assert rejected and all(isinstance(error, ClusterBusyError) for error in rejected)
        assert all(error.retry_after > 0 for error in rejected)


def test_session_submit_many_fails_only_the_rejected_tail(spmm_operands):
    """Through futures, admission rejections are per-request, not batch-fatal."""
    config = ServeConfig(workers=1, worker_threads=1, admission="reject", max_inflight=1)
    with Session(backend="cluster", config=config) as session:
        futures = session.submit_many([(SPMM_EXPR, dict(spmm_operands))] * 12)
        assert len(futures) == 12  # no mid-iteration raise
        outcomes = {"ok": 0, "busy": 0}
        for future in futures:
            try:
                assert future.result(timeout=120).shape == (32, 8)
                outcomes["ok"] += 1
            except ClusterBusyError as error:
                assert error.retry_after > 0
                outcomes["busy"] += 1
        assert outcomes["ok"] >= 1
        assert outcomes["busy"] >= 1
        assert outcomes["ok"] + outcomes["busy"] == 12


def test_future_raises_serve_errors_uniformly(spmm_operands):
    """One except-clause covers every backend's tier failures."""
    config = ServeConfig(workers=1, worker_threads=1, admission="reject", max_inflight=1)
    with Session(backend="cluster", config=config) as session:
        futures = session.submit_many([(SPMM_EXPR, dict(spmm_operands))] * 12)
        caught = []
        for future in futures:
            try:
                future.result(timeout=120)
            except ServeError as error:
                caught.append(error)
        assert caught  # at least one rejection
        assert all(isinstance(error, ClusterBusyError) for error in caught)


def test_closed_server_raises_session_closed_error(spmm_operands):
    from repro.runtime.server import InsumServer

    server = InsumServer(num_workers=1)
    server.close()
    with pytest.raises(SessionClosedError):
        server.run_batch([(SPMM_EXPR, spmm_operands)])
    # SessionClosedError is still a RuntimeError mentioning "closed".
    with pytest.raises(RuntimeError, match="closed"):
        server.run_batch([(SPMM_EXPR, spmm_operands)])


def test_worker_error_types_survive_the_future_path(spmm_operands):
    """Non-serve errors (bad requests) keep their concrete type via futures."""
    with Session(backend="inline") as session:
        future = session.submit(SPMM_EXPR, A=spmm_operands["A"], B=np.zeros((5, 2)))
        error = None
        try:
            future.result(timeout=30)
        except ReproError as caught:
            error = caught
        assert error is not None and not isinstance(error, ServeError)


RAW_EXPR = "C[AM[p],n] += AV[p] * B[AK[p],n]"


def raw_operands(column: int) -> dict:
    """A raw indirect SpMM request whose second entry reads row ``column`` of B."""
    return dict(
        C=np.zeros((4, 2)),
        AV=np.ones(2),
        AM=np.arange(2),
        AK=np.array([0, column]),
        B=np.arange(16.0).reshape(8, 2),
    )


@pytest.mark.parametrize(
    "backend,config",
    [
        ("inline", ServeConfig()),
        ("threaded", ServeConfig(workers=1)),
        ("cluster", ServeConfig(workers=1, worker_threads=1)),
    ],
    ids=["inline", "threaded", "cluster"],
)
def test_an_index_out_of_range_fails_its_request_only(backend, config):
    """The executor's index check reaches the caller typed on every tier; a
    negative index inside the extent wraps, and the next request succeeds."""
    with Session(backend=backend, config=config) as session:
        with pytest.raises(IndexOutOfBoundsError):
            session.submit(RAW_EXPR, **raw_operands(99)).result(timeout=120)
        last_row = session.submit(RAW_EXPR, **raw_operands(7)).result(timeout=120)
        wrapped = session.submit(RAW_EXPR, **raw_operands(-1)).result(timeout=120)
        np.testing.assert_array_equal(wrapped, last_row)
        assert last_row[1].tolist() == [14.0, 15.0]
