"""Session-level retry and warm failover, end to end on the cluster tier.

Retries resubmit transient failures (admission rejection, worker
crashes) with decorrelated-jitter backoff; failover routes new submits
through a warm fallback backend when the cluster drops below its
healthy-worker floor.  Both are session concerns — the backends stay
oblivious.
"""

from __future__ import annotations

import os
import signal
import time

import numpy as np
import pytest

from repro.errors import ClusterBusyError, FutureCancelledError
from repro.obs.metrics import get_registry
from repro.runtime.server import RequestExecutor
from repro.serve import ServeConfig, Session

SPMM_EXPR = "C[m,n] += A[m,k] * B[k,n]"


def slow_down_executor(monkeypatch, delay: float) -> None:
    """Make every execution take ``delay`` seconds (fork-inherited)."""
    original = RequestExecutor.execute

    def slow_execute(self, expression, operands):
        time.sleep(delay)
        return original(self, expression, operands)

    monkeypatch.setattr(RequestExecutor, "execute", slow_execute)


def busy_session(**retry_fields) -> Session:
    """A one-slot cluster where a second submit is rejected as busy."""
    config = ServeConfig(
        workers=1,
        worker_threads=1,
        coalesce=False,
        admission="reject",
        max_inflight=1,
        **retry_fields,
    )
    return Session("cluster", config=config)


class TestRetry:
    def test_busy_rejection_retries_to_success(self, spmm_operands, monkeypatch):
        slow_down_executor(monkeypatch, 0.3)
        counter = get_registry().counter(
            "repro_retries_total",
            "Resubmissions scheduled by the session-level retry policy.",
            backend="cluster",
        )
        before = counter.value()
        with busy_session(retry_attempts=5, retry_base_delay=0.5) as session:
            blocker = session.submit(SPMM_EXPR, **spmm_operands)
            # The only admission slot is held: this submit is rejected
            # with ClusterBusyError, then retried after the blocker frees
            # the slot.
            victim = session.submit(SPMM_EXPR, **spmm_operands)
            result = victim.result(timeout=120)
            assert result.shape == (32, 8)
            np.testing.assert_allclose(result, blocker.result(timeout=120))
        assert counter.value() >= before + 1

    def test_exhausted_retries_deliver_the_last_error(
        self, spmm_operands, monkeypatch
    ):
        slow_down_executor(monkeypatch, 1.0)
        with busy_session(
            retry_attempts=2, retry_base_delay=0.01, retry_max_delay=0.02
        ) as session:
            blocker = session.submit(SPMM_EXPR, **spmm_operands)
            victim = session.submit(SPMM_EXPR, **spmm_operands)
            # Both attempts land while the blocker still owns the slot.
            error = victim.exception(timeout=60)
            assert isinstance(error, ClusterBusyError)
            assert blocker.result(timeout=120).shape == (32, 8)
            # The retry bookkeeping is cleaned up with the future.
            assert not session._parked
            assert not session._unresolved

    def test_close_cancels_pending_retries_promptly(
        self, spmm_operands, monkeypatch
    ):
        slow_down_executor(monkeypatch, 1.0)
        session = busy_session(
            retry_attempts=3, retry_base_delay=5.0, retry_max_delay=15.0
        )
        blocker = session.submit(SPMM_EXPR, **spmm_operands)
        victim = session.submit(SPMM_EXPR, **spmm_operands)
        # The victim's retry timer is armed 5-15 s out; close() must not
        # wait for it — it claims the timer and delivers the last failure.
        started = time.monotonic()
        session.close()
        assert isinstance(victim.exception(timeout=5), ClusterBusyError)
        assert blocker.done()
        # Well under the armed retry delay: close() didn't sleep it out.
        assert time.monotonic() - started < 4.0

    def test_drain_waits_for_a_future_parked_on_a_retry_timer(
        self, spmm_operands, monkeypatch
    ):
        """drain() must not report True while a rejected request still
        waits out its backoff — that future is as unresolved as any."""
        slow_down_executor(monkeypatch, 0.2)
        with busy_session(
            retry_attempts=4, retry_base_delay=1.0, retry_max_delay=1.5
        ) as session:
            blocker = session.submit(SPMM_EXPR, **spmm_operands)
            victim = session.submit(SPMM_EXPR, **spmm_operands)  # rejected, then parked
            assert not victim.done()
            # The blocker resolves long before the victim's backoff ends;
            # drain() has to keep waiting for the parked future.
            assert session.drain(timeout=60) is True
            assert blocker.done() and victim.done()
            assert victim.result(timeout=0).shape == (32, 8)

    def test_cancel_claims_a_future_parked_on_a_retry_timer(
        self, spmm_operands, monkeypatch
    ):
        slow_down_executor(monkeypatch, 0.3)
        with busy_session(
            retry_attempts=3, retry_base_delay=5.0, retry_max_delay=15.0
        ) as session:
            blocker = session.submit(SPMM_EXPR, **spmm_operands)
            victim = session.submit(SPMM_EXPR, **spmm_operands)  # parked 5-15 s out
            assert victim.cancel() is True
            assert victim.cancelled() and victim.cancel() is True  # idempotent
            with pytest.raises(FutureCancelledError):
                victim.result(timeout=0)
            assert not session._parked  # the armed timer was claimed, not leaked
            assert blocker.result(timeout=120).shape == (32, 8)
            # Nothing is left to wait for: the cancelled retry never fires.
            assert session.drain(timeout=5) is True
            assert session.stats().completed == 1

    def test_retry_disabled_by_default(self, spmm_operands):
        with busy_session() as session:
            assert session._retry is None


class TestFailover:
    def test_unhealthy_cluster_routes_new_submits_to_fallback(self, spmm_operands):
        config = ServeConfig(
            workers=2,
            worker_threads=1,
            coalesce=False,
            restart_budget=0,
            health_interval=0.05,
            failover="threaded",
            failover_floor=2,
        )
        with Session("cluster", config=config) as session:
            warm = session.submit(SPMM_EXPR, **spmm_operands).result(timeout=120)
            assert warm.shape == (32, 8)
            assert session.health()["failover"] == {
                "backend": "threaded",
                "floor": 2,
                "active": False,
            }

            # restart_budget=0: the first crash permanently retires the
            # slot, dropping the cluster below the floor of 2.
            os.kill(session._backend.worker_pids[0], signal.SIGKILL)
            deadline = time.monotonic() + 60
            while session._backend.healthy_worker_count >= 2:
                assert time.monotonic() < deadline, "slot was never retired"
                time.sleep(0.02)

            counter = get_registry().counter(
                "repro_failover_submits_total",
                "Submits routed to the warm fallback backend while the "
                "primary was unhealthy.",
                backend="cluster",
            )
            before = counter.value()
            future = session.submit(SPMM_EXPR, **spmm_operands)
            np.testing.assert_allclose(future.result(timeout=120), warm)
            assert session._fallback.stats().completed == 1  # served by the fallback
            assert counter.value() == before + 1
            assert session.health()["failover"]["active"] is True

    def test_healthy_cluster_never_uses_the_fallback(self, spmm_operands):
        config = ServeConfig(
            workers=1,
            worker_threads=1,
            coalesce=False,
            failover="threaded",
            failover_floor=1,
        )
        with Session("cluster", config=config) as session:
            future = session.submit(SPMM_EXPR, **spmm_operands)
            assert future.result(timeout=120).shape == (32, 8)
            assert session._fallback.stats().completed == 0
            assert session.stats().completed == 1

    def test_failover_is_cluster_only(self):
        with pytest.raises(ValueError, match="failover"):
            ServeConfig(failover="threaded").validate("threaded")
