"""Cluster resilience: containment, close races, restart budgets, poison.

The containment test is the regression for control-plane thread death:
an exception injected into the monitor loop must fail every in-flight
future with :class:`~repro.errors.ControlThreadError` — never leave a
``Future.result()`` caller hanging.  The module-level shm-leak fixture
in ``conftest.py`` gives the close-race and crash-loop tests their
teeth: any segment a lost race leaks fails the test.
"""

from __future__ import annotations

import os
import signal
import time

import numpy as np
import pytest

from repro import ClusterServer
from repro.runtime import Request
from repro.errors import (
    ControlThreadError,
    PoisonedRequestError,
    WorkerCrashedError,
)
from repro.formats import COO
from repro.runtime.server import RequestExecutor
from repro.serve import ServeConfig, Session

SPMM_EXPR = "C[m,n] += A[m,k] * B[k,n]"


@pytest.fixture
def operands():
    rng = np.random.default_rng(23)
    dense = np.where(rng.random((48, 64)) < 0.1, rng.standard_normal((48, 64)), 0.0)
    return dict(A=COO.from_dense(dense), B=rng.standard_normal((64, 4)))


def wait_until(predicate, timeout: float, message: str) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, message
        time.sleep(0.02)


class TestControlThreadContainment:
    def test_monitor_death_fails_all_futures_without_hanging(
        self, operands, monkeypatch
    ):
        """Inject an exception into the monitor loop; nothing may hang."""
        original = RequestExecutor.execute

        def slow_execute(self, expression, ops):
            time.sleep(0.5)
            return original(self, expression, ops)

        monkeypatch.setattr(RequestExecutor, "execute", slow_execute)
        config = ServeConfig(workers=2)
        with Session("cluster", config=config) as session:
            backend = session._backend
            futures = [session.submit(SPMM_EXPR, **operands) for _ in range(6)]

            def raising_iteration():
                raise RuntimeError("injected monitor fault")

            backend._monitor_iteration = raising_iteration

            errors = []
            for future in futures:
                # The containment guarantee: every future resolves.  A
                # request already executing when the fault lands may
                # still fail with the containment error (its in-flight
                # record was cleared), so only classify, don't demand
                # success.
                error = future.exception(timeout=60)
                if error is not None:
                    errors.append(error)
            assert errors, "fault landed after every request completed"
            assert all(isinstance(error, ControlThreadError) for error in errors)

            # New submissions are refused with the same containment error.
            post = session.submit(SPMM_EXPR, **operands)
            assert isinstance(post.exception(timeout=30), ControlThreadError)

            assert backend.healthy_worker_count == 0
            health = backend.health()
            assert health["status"] == "degraded"
            assert "monitor" in health["control_error"]


class TestCloseRestartRace:
    @pytest.mark.parametrize("round_", range(2))
    def test_close_during_crash_restart_leaks_nothing(self, round_, operands):
        """close() racing the monitor's restart must not leak segments.

        The conftest shm-leak fixture asserts zero leaked segments after
        the test body — that assertion is the test.
        """
        config = ServeConfig(workers=2, health_interval=0.05)
        session = Session("cluster", config=config)
        try:
            result = session.submit(SPMM_EXPR, **operands).result(timeout=120)
            assert result.shape == (48, 4)
            pid = session._backend.worker_pids[0]
            os.kill(pid, signal.SIGKILL)
        finally:
            # Immediately: the monitor is (or is about to be) mid-restart.
            session.close()


class TestRestartBudget:
    def test_crash_loop_exhausts_budget_and_retires_the_slot(self, operands):
        """A crash-looping slot dies permanently; the pool routes around it."""
        with ClusterServer(
            num_workers=2,
            worker_threads=1,
            restart_budget=1,
            restart_window=3600.0,
            health_interval=0.05,
        ) as cluster:
            # restart_budget=1: the first crash spends the only token, the
            # second exhausts the bucket.  Kill each new incarnation of
            # slot 0 until the supervisor retires it.
            deadline = time.monotonic() + 60
            killed_pid = None
            while not cluster.supervisor.is_dead(0):
                assert time.monotonic() < deadline, "slot was never retired"
                pid = cluster.worker_pids[0]
                if pid is not None and pid != killed_pid:
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
                    killed_pid = pid
                time.sleep(0.02)

            assert cluster.supervisor.dead_workers == (0,)
            wait_until(
                lambda: cluster.healthy_worker_count == 1,
                timeout=30,
                message="healthy count never converged to the surviving slot",
            )
            health = cluster.health()
            assert health["status"] == "degraded"
            assert health["dead_workers"] == [0]

            # The surviving slot still serves.
            results = cluster.run_batch(
                [(SPMM_EXPR, dict(operands))] * 4, timeout=120
            )
            assert all(result.ok for result in results)


class TestPoisonFailFast:
    def test_quarantined_request_fails_fast_on_resubmit(self, operands):
        """Drive a request through crash-requeues to quarantine directly."""
        with ClusterServer(num_workers=1, worker_threads=1, max_attempts=2) as cluster:
            landed = []
            doomed = Request(SPMM_EXPR, dict(operands), on_done=landed.append)
            cluster.admission.acquire()
            with cluster._state:
                cluster._unfinished += 1
            doomed.accept(10_000)
            doomed.dispatches = doomed.crashes = 1
            # Second crash-requeue: dispatches and crashes both reach
            # max_attempts, so the request fails out AND is quarantined.
            cluster._requeue(doomed, exclude_worker=None, crashed=True)
            (result,) = landed
            assert isinstance(result.error, WorkerCrashedError)
            assert len(cluster.quarantine) == 1

            # Resubmitting identical content fails fast at submit...
            with pytest.raises(PoisonedRequestError):
                cluster.submit(Request(SPMM_EXPR, dict(operands), on_done=landed.append))
            assert len(landed) == 1  # a refused request never reaches on_done

            # ...while different operands are served normally.
            rng = np.random.default_rng(29)
            fresh = dict(operands, B=rng.standard_normal((64, 4)))
            (ok_result,) = cluster.run_batch([(SPMM_EXPR, fresh)], timeout=120)
            assert ok_result.ok
