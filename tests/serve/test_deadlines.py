"""Deadline enforcement matrix: every stage, on every backend.

Three expiry points — already expired at submit, expired while queued
behind slower work, and expired mid-execution — each resolving the
future with :class:`~repro.errors.DeadlineExceededError` instead of
hanging or silently delivering a late result.  Execution is slowed by
monkeypatching :meth:`RequestExecutor.execute`; the cluster backend
inherits the patch through fork at worker spawn.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.errors import DeadlineExceededError
from repro.formats import GroupCOO
from repro.obs.metrics import get_registry
from repro.runtime.server import RequestExecutor
from repro.serve import ServeConfig, Session

SPMM_EXPR = "C[m,n] += A[m,k] * B[k,n]"

BACKENDS = ("inline", "threaded", "cluster")

#: How long the slowed executor holds each request (seconds).
EXECUTE_DELAY = 0.4


@pytest.fixture(scope="module")
def operands():
    rng = np.random.default_rng(17)
    fmt = GroupCOO.from_dense(
        np.where(rng.random((24, 32)) < 0.15, rng.standard_normal((24, 32)), 0.0),
        group_size=4,
    )
    return dict(A=fmt, B=rng.standard_normal((32, 4)))


def make_session(backend: str) -> Session:
    if backend == "inline":
        return Session("inline")
    return Session(backend, config=ServeConfig(workers=1, coalesce=False))


def slow_down_executor(monkeypatch, delay: float = EXECUTE_DELAY) -> None:
    """Make every execution take ``delay`` seconds (fork-inherited)."""
    original = RequestExecutor.execute

    def slow_execute(self, expression, operands):
        time.sleep(delay)
        return original(self, expression, operands)

    monkeypatch.setattr(RequestExecutor, "execute", slow_execute)


class TestExpiredBeforeDispatch:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_zero_budget_is_rejected_without_executing(self, backend, operands):
        with make_session(backend) as session:
            future = session.submit(SPMM_EXPR, deadline_ms=0, **operands)
            with pytest.raises(DeadlineExceededError):
                future.result(timeout=30)
            # The session still serves afterwards — shedding one expired
            # request costs nothing.
            result = session.submit(SPMM_EXPR, **operands).result(timeout=60)
            assert result.shape == (24, 4)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_generous_deadline_does_not_interfere(self, backend, operands):
        with make_session(backend) as session:
            result = session.submit(SPMM_EXPR, deadline_ms=60_000, **operands).result(
                timeout=60
            )
            assert result.shape == (24, 4)


class TestExpiredInQueue:
    @pytest.mark.parametrize("backend", ("threaded", "cluster"))
    def test_queued_request_is_shed_not_executed(self, backend, operands, monkeypatch):
        slow_down_executor(monkeypatch)
        with make_session(backend) as session:
            blocker = session.submit(SPMM_EXPR, **operands)
            victim = session.submit(SPMM_EXPR, deadline_ms=100, **operands)
            with pytest.raises(DeadlineExceededError):
                victim.result(timeout=60)
            assert blocker.result(timeout=120).shape == (24, 4)

    def test_threaded_queue_expiry_names_the_stage(self, operands, monkeypatch):
        slow_down_executor(monkeypatch)
        with make_session("threaded") as session:
            session.submit(SPMM_EXPR, **operands)
            victim = session.submit(SPMM_EXPR, deadline_ms=100, **operands)
            error = victim.exception(timeout=60)
            assert isinstance(error, DeadlineExceededError)
            assert "(queue)" in str(error)


class TestExpiredMidExecute:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_late_completion_converts_to_deadline_error(
        self, backend, operands, monkeypatch
    ):
        slow_down_executor(monkeypatch)
        with make_session(backend) as session:
            future = session.submit(SPMM_EXPR, deadline_ms=150, **operands)
            with pytest.raises(DeadlineExceededError):
                future.result(timeout=60)

    def test_inline_mid_execute_stage_label(self, operands, monkeypatch):
        slow_down_executor(monkeypatch)
        with make_session("inline") as session:
            future = session.submit(SPMM_EXPR, deadline_ms=150, **operands)
            error = future.exception(timeout=60)
            assert isinstance(error, DeadlineExceededError)
            assert "(execute)" in str(error)


class TestDeadlineObservability:
    def test_expired_requests_are_counted_per_tier(self, operands, monkeypatch):
        slow_down_executor(monkeypatch)
        registry = get_registry()
        counter = registry.counter(
            "repro_deadline_expired_total",
            "Requests that exceeded their deadline, by serving tier.",
            backend="threaded",
        )
        before = counter.value()
        with make_session("threaded") as session:
            session.submit(SPMM_EXPR, **operands)
            victim = session.submit(SPMM_EXPR, deadline_ms=100, **operands)
            with pytest.raises(DeadlineExceededError):
                victim.result(timeout=60)
        assert counter.value() >= before + 1

    def test_inline_counts_a_result_that_expires_mid_execute(self, operands, monkeypatch):
        slow_down_executor(monkeypatch)
        counter = get_registry().counter(
            "repro_deadline_expired_total",
            "Requests that exceeded their deadline, by serving tier.",
            backend="inline",
        )
        before = counter.value()
        with make_session("inline") as session:
            future = session.submit(SPMM_EXPR, deadline_ms=150, **operands)
            with pytest.raises(DeadlineExceededError):
                future.result(timeout=60)
        assert counter.value() == before + 1

    def test_deadline_error_is_a_serve_error_not_a_timeout(self):
        from repro.errors import ReproError, ServeError

        assert issubclass(DeadlineExceededError, ServeError)
        assert issubclass(DeadlineExceededError, ReproError)
        assert issubclass(DeadlineExceededError, RuntimeError)
        # Deliberately NOT a TimeoutError: Future.result(timeout=...)
        # raising TimeoutError means "you stopped waiting", while a
        # deadline failure means "the request itself is dead".
        assert not issubclass(DeadlineExceededError, TimeoutError)
