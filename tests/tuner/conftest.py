"""Shared tuner-test fixtures: every test starts and ends with no decisions."""

from __future__ import annotations

import pytest

from repro.tuner.auto import clear_decision_cache


@pytest.fixture(autouse=True)
def no_decisions():
    """Clear the process-wide decision cache around each test."""
    clear_decision_cache()
    yield
    clear_decision_cache()
