"""Future semantics: delivery, timeout, cancellation, callbacks."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.errors import EinsumValidationError, FutureCancelledError, SessionClosedError
from repro.runtime.server import RequestExecutor
from repro.serve import ServeConfig, Session

SPMM_EXPR = "C[m,n] += A[m,k] * B[k,n]"
SPMV_EXPR = "y[m] += A[m,k] * x[k]"


@pytest.fixture
def gated_executor(monkeypatch):
    """Make SPMV requests block on an event until the test releases them.

    Patching :meth:`RequestExecutor.execute` gates every backend at the
    single shared execution choke point, so worker occupancy is
    deterministic instead of a sleep-based race.
    """
    gate = threading.Event()
    entered = threading.Event()
    original = RequestExecutor.execute

    def gated(self, expression, operands):
        if expression == SPMV_EXPR:
            entered.set()
            assert gate.wait(30), "test forgot to open the gate"
        return original(self, expression, operands)

    monkeypatch.setattr(RequestExecutor, "execute", gated)
    yield gate, entered
    gate.set()  # never leave a worker blocked


def _spmv_operands(spmm_operands):
    from repro.formats import COO

    rng = np.random.default_rng(5)
    dense = np.where(rng.random((32, 48)) < 0.2, rng.standard_normal((32, 48)), 0.0)
    return dict(A=COO.from_dense(dense), x=rng.standard_normal(48))


def test_result_and_done_and_latency(spmm_operands):
    with Session(backend="threaded") as session:
        future = session.submit(SPMM_EXPR, **spmm_operands)
        output = future.result(timeout=30)
        assert future.done() and not future.cancelled()
        assert future.expression == SPMM_EXPR
        assert future.latency_ms is not None and future.latency_ms >= 0
        assert output.shape == (32, 8)
        # result() is repeatable (unlike the consuming legacy gather).
        assert np.array_equal(future.result(), output)


def test_worker_error_delivered_through_future(spmm_operands):
    with Session(backend="threaded") as session:
        future = session.submit(SPMM_EXPR, A=spmm_operands["A"], B=np.zeros((7, 3)))
        with pytest.raises(EinsumValidationError):
            future.result(timeout=30)
        assert future.done()
        assert isinstance(future.exception(), EinsumValidationError)


def test_result_timeout(gated_executor, spmm_operands):
    gate, entered = gated_executor
    with Session(backend="threaded", config=ServeConfig(workers=1)) as session:
        blocked = session.submit(SPMV_EXPR, **_spmv_operands(spmm_operands))
        assert entered.wait(10)
        with pytest.raises(TimeoutError):
            blocked.result(timeout=0.05)
        assert not blocked.done()
        gate.set()
        assert blocked.result(timeout=30).shape == (32,)


def test_cancel_not_yet_dispatched_work(gated_executor, spmm_operands):
    gate, entered = gated_executor
    observed = []
    with Session(backend="threaded", config=ServeConfig(workers=1)) as session:
        blocker = session.submit(SPMV_EXPR, **_spmv_operands(spmm_operands))
        assert entered.wait(10)  # the only worker is now occupied
        victim = session.submit(SPMM_EXPR, **spmm_operands)
        victim.add_done_callback(lambda f: observed.append(f.cancelled()))
        assert victim.cancel() is True
        assert victim.cancelled() and victim.done()
        assert victim.cancel() is True  # idempotent
        with pytest.raises(FutureCancelledError):
            victim.result(timeout=5)
        with pytest.raises(FutureCancelledError):
            victim.exception(timeout=5)
        gate.set()
        assert blocker.result(timeout=30) is not None
        # Cancelled work is neither completed nor failed in the stats.
        stats = session.stats()
        assert stats.completed == 1 and stats.failed == 0
    assert observed == [True]


def test_cancel_fails_once_running_or_done(gated_executor, spmm_operands):
    gate, entered = gated_executor
    with Session(backend="threaded", config=ServeConfig(workers=1)) as session:
        running = session.submit(SPMV_EXPR, **_spmv_operands(spmm_operands))
        assert entered.wait(10)
        assert running.cancel() is False  # claimed by a worker: too late
        gate.set()
        running.result(timeout=30)
        assert running.cancel() is False  # already done

        done = session.submit(SPMM_EXPR, **spmm_operands)
        done.result(timeout=30)
        assert done.cancel() is False


def test_inline_futures_are_never_cancellable(spmm_operands):
    with Session(backend="inline") as session:
        future = session.submit(SPMM_EXPR, **spmm_operands)
        assert future.done()  # inline resolves during submit
        assert future.cancel() is False
        assert future.result().shape == (32, 8)


def test_callbacks_fire_on_completion_and_immediately_when_done(spmm_operands):
    fired = []
    with Session(backend="threaded") as session:
        future = session.submit(SPMM_EXPR, **spmm_operands)
        future.add_done_callback(lambda f: fired.append("first"))
        future.result(timeout=30)
        future.add_done_callback(lambda f: fired.append("late"))
        deadline = time.monotonic() + 5
        while "first" not in fired and time.monotonic() < deadline:
            time.sleep(0.01)
    assert fired == ["first", "late"]


def test_callback_exceptions_are_swallowed(spmm_operands):
    with Session(backend="threaded") as session:
        future = session.submit(SPMM_EXPR, **spmm_operands)

        def bad_callback(f):
            raise RuntimeError("callback bug")

        future.add_done_callback(bad_callback)
        assert future.result(timeout=30) is not None  # delivery survived


def test_closed_session_rejects_submission(spmm_operands):
    session = Session(backend="inline")
    session.close()
    with pytest.raises(SessionClosedError):
        session.submit(SPMM_EXPR, **spmm_operands)
    session.close()  # idempotent


def test_context_manager_drains_before_close(spmm_operands):
    with Session(backend="threaded", config=ServeConfig(workers=2)) as session:
        futures = [session.submit(SPMM_EXPR, **spmm_operands) for _ in range(16)]
    # Exiting the context drained everything: all futures resolved.
    assert all(future.done() for future in futures)
    assert all(future.result().shape == (32, 8) for future in futures)


def test_cluster_cancel_after_submit_returns_is_too_late(spmm_operands):
    """The cluster dispatches on the submitting thread: once ``submit`` has
    returned, the request is claimed and sent, so a cancel gives False and
    the result still arrives, as on the inline tier."""
    with Session(backend="cluster", config=ServeConfig(workers=1)) as session:
        future = session.submit(SPMM_EXPR, **spmm_operands)
        assert future.cancel() is False
        assert not future.cancelled()
        assert future.result(timeout=60).shape == (32, 8)
        stats = session.stats()
        assert stats.completed == 1 and stats.failed == 0 and stats.cancelled == 0


def test_cluster_cancel_that_wins_before_the_claim(spmm_operands):
    """A cancel that lands between admission and the submitting thread's
    claim wins the compare-and-set: the request is never sent, resolves with
    FutureCancelledError, and gives its admission slot back."""
    from repro.cluster.server import ClusterServer
    from repro.runtime.request import Request

    with ClusterServer(num_workers=1) as cluster:
        landed, won = [], []
        request = Request(SPMM_EXPR, dict(spmm_operands), on_done=landed.append)

        def cancel_then_claim():
            won.append(cluster.try_cancel(request))
            return Request.claim(request)

        request.claim = cancel_then_claim
        cluster.submit(request)
        assert won == [True]
        (result,) = landed
        assert isinstance(result.error, FutureCancelledError)
        assert cluster.admission.inflight == 0
        assert cluster.try_cancel(request) is False  # already finished
        (served,) = cluster.run_batch([(SPMM_EXPR, spmm_operands)], timeout=60)
        assert served.ok
        stats = cluster.stats()
        assert (stats.completed, stats.failed, stats.cancelled) == (1, 0, 1)
        assert stats.per_worker[0].completed == 1  # the cancelled one never ran
