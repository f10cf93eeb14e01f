"""Unit tests for the deadline primitive (pure, fake-clock, no sleeps)."""

from __future__ import annotations

import pytest

from repro.errors import DeadlineExceededError
from repro.resilience.deadline import Deadline, deadline_error, expired_result
from repro.runtime.server import InsumResult


class TestDeadline:
    def test_after_ms_anchors_on_injected_now(self):
        deadline = Deadline.after_ms(250.0, now=1000.0)
        assert deadline.expires_at == 1000.25
        assert not deadline.expired(now=1000.2)
        assert deadline.expired(now=1000.25)  # inclusive boundary
        assert deadline.expired(now=1001.0)

    def test_zero_and_negative_budgets_are_born_expired(self):
        assert Deadline.after_ms(0.0, now=5.0).expired(now=5.0)
        assert Deadline.after_ms(-10.0, now=5.0).expired(now=5.0)

    def test_remaining_clamps_at_zero(self):
        deadline = Deadline.after_ms(100.0, now=10.0)
        assert deadline.remaining_s(now=10.0) == pytest.approx(0.1)
        assert deadline.remaining_s(now=10.05) == pytest.approx(0.05)
        assert deadline.remaining_s(now=11.0) == 0.0

    def test_from_epoch_round_trips_and_passes_none(self):
        deadline = Deadline.after_ms(50.0, now=3.0)
        rebuilt = Deadline.from_epoch(deadline.expires_at)
        assert rebuilt == deadline
        assert Deadline.from_epoch(None) is None


class TestExpiredResult:
    def _result(self) -> InsumResult:
        return InsumResult(request_id=7, expression="E", output=object())

    def test_converts_late_completion(self):
        result = self._result()
        expired_result(result, Deadline(expires_at=0.0), stage="execute")
        assert result.output is None
        assert isinstance(result.error, DeadlineExceededError)
        assert "request 7" in str(result.error)
        assert "(execute)" in str(result.error)

    def test_no_deadline_is_a_noop(self):
        result = self._result()
        expired_result(result, None)
        assert result.error is None and result.output is not None

    def test_unexpired_deadline_is_a_noop(self):
        result = self._result()
        expired_result(result, Deadline.after_ms(60_000.0))
        assert result.error is None and result.output is not None

    def test_existing_error_wins_over_conversion(self):
        result = self._result()
        original = RuntimeError("worker failed first")
        result.error = original
        expired_result(result, Deadline(expires_at=0.0))
        assert result.error is original

    def test_deadline_error_message_carries_stage(self):
        error = deadline_error(42, "queue")
        assert isinstance(error, DeadlineExceededError)
        assert "request 42" in str(error) and "(queue)" in str(error)
