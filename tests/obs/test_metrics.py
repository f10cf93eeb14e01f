"""Registry exactness and Prometheus exposition under concurrency."""

from __future__ import annotations

import threading
import time

import pytest

from repro.obs.metrics import MetricsRegistry, get_registry, validate_prometheus_text

THREADS = 8
INCS_PER_THREAD = 5000


def hammer(target, args=(), threads=THREADS):
    """Run ``target(*args)`` concurrently from ``threads`` threads."""
    pool = [threading.Thread(target=target, args=args) for _ in range(threads)]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()


def test_counter_total_is_exact_under_contention():
    registry = MetricsRegistry()
    counter = registry.counter("repro_test_hits_total", "test counter")

    def work():
        for _ in range(INCS_PER_THREAD):
            counter.inc()

    hammer(work)
    assert counter.value() == THREADS * INCS_PER_THREAD


def test_histogram_count_and_buckets_are_exact_under_contention():
    registry = MetricsRegistry()
    histogram = registry.histogram(
        "repro_test_sizes", "test histogram", buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)
    )

    def work():
        for index in range(INCS_PER_THREAD):
            histogram.observe(float(index % 100))

    hammer(work)
    snapshot = histogram.snapshot()
    assert snapshot["count"] == THREADS * INCS_PER_THREAD
    # The +Inf bucket equals the count, and cumulative counts never decrease.
    bounds, counts = zip(*snapshot["buckets"])
    assert bounds[-1] == float("inf")
    assert counts[-1] == snapshot["count"]
    assert list(counts) == sorted(counts)


def test_snapshots_are_monotonic_while_writers_run():
    registry = MetricsRegistry()
    counter = registry.counter("repro_test_mono_total")
    stop = threading.Event()
    observed: list[float] = []

    def write():
        while not stop.is_set():
            counter.inc()

    def read():
        while not stop.is_set():
            tree = registry.snapshot()
            observed.append(tree["repro_test_mono_total"]["series"][0]["value"])

    writers = [threading.Thread(target=write) for _ in range(4)]
    reader = threading.Thread(target=read)
    for thread in writers + [reader]:
        thread.start()
    deadline = time.time() + 10.0
    while len(observed) < 200 and time.time() < deadline:
        time.sleep(0.001)
    stop.set()
    for thread in writers + [reader]:
        thread.join()
    assert observed == sorted(observed), "counter snapshot went backwards"


def test_same_labels_return_same_child_and_kinds_conflict():
    registry = MetricsRegistry()
    first = registry.counter("repro_test_total", "h", backend="x")
    second = registry.counter("repro_test_total", backend="x")
    assert first is second
    registry.counter("repro_test_total", backend="y").inc(3)
    with pytest.raises(ValueError, match="already registered"):
        registry.gauge("repro_test_total")


def test_counter_rejects_negative_increment():
    registry = MetricsRegistry()
    with pytest.raises(ValueError, match="cannot decrease"):
        registry.counter("repro_test_neg_total").inc(-1)


def test_render_prometheus_passes_its_own_validator():
    registry = MetricsRegistry()
    registry.counter("repro_demo_total", "Requests.", backend="threaded").inc(7)
    registry.gauge("repro_demo_inflight", "In flight.").set(2.5)
    histogram = registry.histogram("repro_demo_ms", "Latency.", buckets=(1.0, 10.0))
    histogram.observe(0.5)
    histogram.observe(5.0)
    histogram.observe(50.0)
    text = registry.render_prometheus()
    assert validate_prometheus_text(text) == []
    assert 'repro_demo_total{backend="threaded"} 7' in text
    assert 'repro_demo_ms_bucket{le="+Inf"} 3' in text
    assert "repro_demo_ms_count 3" in text


def test_validator_flags_malformed_expositions():
    assert validate_prometheus_text("repro_x_total 1\n")  # no # TYPE
    assert validate_prometheus_text("# TYPE repro_x_total counter\nrepro_x_total one\n")
    broken_histogram = (
        "# TYPE repro_h histogram\n"
        'repro_h_bucket{le="1"} 5\n'
        'repro_h_bucket{le="+Inf"} 3\n'  # decreasing cumulative counts
        "repro_h_sum 1\n"
        "repro_h_count 3\n"
    )
    problems = validate_prometheus_text(broken_histogram)
    assert any("decrease" in problem for problem in problems)
    no_inf = (
        "# TYPE repro_h histogram\n"
        'repro_h_bucket{le="1"} 5\n'
        "repro_h_sum 1\n"
        "repro_h_count 5\n"
    )
    assert any("+Inf" in problem for problem in validate_prometheus_text(no_inf))


def test_global_registry_renders_validly():
    # The process-wide registry has accumulated real series from other
    # tests by the time this runs; it must always render parseably.
    assert validate_prometheus_text(get_registry().render_prometheus()) == []
