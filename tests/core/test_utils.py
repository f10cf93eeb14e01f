"""Tests for the shared utility helpers."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.utils import (
    Timer,
    as_index_array,
    as_value_array,
    ceil_div,
    fresh_name,
    is_identifier,
    is_power_of_two,
    next_power_of_two,
    prev_power_of_two,
    round_to_power_of_two,
)
from repro.utils.arrays import nonzero_entries
from repro.utils.naming import reset_names


def test_ceil_div():
    assert ceil_div(7, 2) == 4
    assert ceil_div(8, 2) == 4
    assert ceil_div(0, 3) == 0
    with pytest.raises(ValueError):
        ceil_div(3, 0)


def test_power_of_two_helpers():
    assert is_power_of_two(1) and is_power_of_two(64)
    assert not is_power_of_two(0) and not is_power_of_two(48)
    assert next_power_of_two(33) == 64
    assert next_power_of_two(32) == 32
    assert prev_power_of_two(33) == 32
    assert round_to_power_of_two(5.6) == 4  # below the geometric midpoint of 4 and 8
    assert round_to_power_of_two(6.0) == 8
    assert round_to_power_of_two(0.3) == 1
    with pytest.raises(ValueError):
        next_power_of_two(0)
    with pytest.raises(ValueError):
        round_to_power_of_two(0)


def test_as_index_array_coercion():
    np.testing.assert_array_equal(as_index_array([1.0, 2.0]), [1, 2])
    assert as_index_array([1, 2]).dtype == np.int64
    with pytest.raises(ShapeError):
        as_index_array([1.5])


def test_as_value_array_coercion():
    assert as_value_array([1, 2]).dtype == np.float64
    assert as_value_array([1, 2], dtype=np.float32).dtype == np.float32


def test_nonzero_entries():
    (index,), values = nonzero_entries(np.array([0.0, 1.0, 1e-9, -0.0, np.nan]))
    assert index.tolist() == [1, 2, 4]  # -0.0 is zero, NaN is not
    assert values[:2].tolist() == [1.0, 1e-9] and np.isnan(values[2])
    (rows, cols), values = nonzero_entries(np.array([[0, 2], [3, 0]]))
    assert (rows.tolist(), cols.tolist(), values.tolist()) == ([0, 1], [1, 0], [2, 3])
    with pytest.raises(ShapeError):
        nonzero_entries(np.float64(1.0))


def test_fresh_name_and_identifier():
    reset_names()
    assert fresh_name("buf") == "buf_0"
    assert fresh_name("buf") == "buf_1"
    assert is_identifier("AV_1")
    assert not is_identifier("1AV")
    assert not is_identifier("a-b")


def test_timer_measures_elapsed():
    with Timer() as timer:
        sum(range(10000))
    assert timer.elapsed >= 0.0
    assert timer.elapsed_ms == pytest.approx(timer.elapsed * 1e3)


def test_latency_recorder_keeps_only_the_most_recent_samples():
    """A server never reset must not grow: the oldest sample leaves first."""
    from repro.utils.timing import MAX_SAMPLES, LatencyRecorder

    recorder = LatencyRecorder()
    for sample in range(MAX_SAMPLES + 1):
        recorder.record(float(sample))
    kept = recorder.samples()
    assert MAX_SAMPLES == 65_536 and len(kept) == recorder.count == MAX_SAMPLES
    assert kept[0] == 1.0 and kept[-1] == float(MAX_SAMPLES)
    assert recorder.summary().max_ms == float(MAX_SAMPLES)
