"""Trace plumbing: spans across all three serving tiers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.formats import COO
from repro.obs import trace as obs_trace
from repro.obs.trace import Trace
from repro.serve import ServeConfig, Session


def small_request(rng):
    dense = np.where(rng.random((24, 32)) < 0.2, rng.standard_normal((24, 32)), 0.0)
    return (
        "C[m,n] += A[m,k] * B[k,n]",
        dict(A=COO.from_dense(dense), B=rng.standard_normal((32, 8))),
    )


def assert_non_overlapping(spans):
    ordered = sorted(spans, key=lambda span: (span.start, span.end))
    for earlier, later in zip(ordered, ordered[1:]):
        assert later.start >= earlier.end - 1e-6, (
            f"span {later.name} overlaps {earlier.name}"
        )


def test_span_between_builds_from_stamps_and_sorts():
    trace = Trace("t-1")
    trace.stamp("a", 1.0)
    trace.stamp("b", 2.0)
    trace.stamp("c", 2.5)
    assert trace.span_between("second", "b", "c")
    assert trace.span_between("first", "a", "b", batch_size=4)
    assert not trace.span_between("missing", "a", "nope")
    spans = trace.spans()
    assert [span.name for span in spans] == ["first", "second"]
    assert spans[0].meta == {"batch_size": 4}
    assert spans[0].duration_ms == pytest.approx(1000.0)


def test_export_merge_roundtrip_preserves_parent_stamps():
    parent = Trace("t-2")
    parent.stamp("submit", 1.0)
    worker = Trace("t-2")
    worker.stamp("submit", 99.0)  # must NOT overwrite the parent's stamp
    worker.stamp("exec.end", 3.0)
    worker.add_span("execute", 2.0, 3.0, coalesced=False)
    parent.merge(worker.export())
    assert parent.stamp_of("submit") == 1.0
    assert parent.stamp_of("exec.end") == 3.0
    assert [span.name for span in parent.spans()] == ["execute"]


def test_maybe_start_respects_disable_switch():
    old = obs_trace.set_enabled(False)
    try:
        assert obs_trace.maybe_start() is None
    finally:
        obs_trace.set_enabled(old)
    trace = obs_trace.maybe_start("adopted-id")
    assert trace is not None and trace.trace_id == "adopted-id"


@pytest.mark.parametrize(
    "backend,config",
    [
        ("inline", ServeConfig()),
        ("threaded", ServeConfig(workers=2)),
    ],
)
def test_in_process_future_trace_has_queue_and_execute_spans(backend, config, rng):
    expression, operands = small_request(rng)
    with Session(backend=backend, config=config) as session:
        future = session.submit(expression, **operands)
        future.result(timeout=60)
    trace = future.trace()
    assert trace is not None
    names = {span.name for span in trace.spans()}
    assert {"queue.wait", "execute"} <= names
    assert_non_overlapping(trace.spans())


def test_cluster_trace_covers_wall_latency(rng):
    """Acceptance: >= 4 non-overlapping spans covering >= 90% of latency."""
    expression, operands = small_request(rng)
    config = ServeConfig(workers=2, worker_threads=1)
    with Session(backend="cluster", config=config) as session:
        # Warm, then measure one request end to end.
        session.submit(expression, **operands).result(timeout=120)
        future = session.submit(expression, **operands)
        future.result(timeout=120)
    trace = future.trace()
    assert trace is not None
    spans = trace.spans()
    assert len(spans) >= 4
    assert_non_overlapping(spans)
    names = {span.name for span in spans}
    assert {"queue.dispatch", "ring.transit", "execute", "ring.respond"} <= names
    coverage = trace.total_span_ms() / future.latency_ms
    assert coverage >= 0.9, f"spans cover only {coverage:.1%} of wall latency"


def test_tracing_disabled_yields_no_trace(rng):
    expression, operands = small_request(rng)
    old = obs_trace.set_enabled(False)
    try:
        with Session(backend="inline") as session:
            future = session.submit(expression, **operands)
            future.result(timeout=60)
        assert future.trace() is None
    finally:
        obs_trace.set_enabled(old)
