"""Shared tuner-test fixtures: a fixed calibration for determinism."""

from __future__ import annotations

import pytest

from repro.tuner import Calibration, set_calibration
from repro.tuner.auto import clear_decision_cache

#: Representative constants (measured once on a dev machine) so that
#: cost-model tests do not depend on microbenchmark noise in CI.
FIXED_CALIBRATION = Calibration(
    gather_ns=1.0,
    scatter_ns=10.0,
    flop_ns=0.4,
    block_flop_ns=0.04,
    unit_ns=5.0,
    overhead_us=2.0,
)


@pytest.fixture(autouse=True)
def fixed_calibration():
    """Pin the process-wide calibration and clear tuner decisions."""
    set_calibration(FIXED_CALIBRATION)
    clear_decision_cache()
    yield
    set_calibration(None)
    clear_decision_cache()
