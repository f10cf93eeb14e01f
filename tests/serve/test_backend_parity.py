"""Backend parity: one workload, three backends, identical bits.

The acceptance bar of the serve tier: a workload submitted through
``Session`` on inline, threaded, and cluster backends returns
*bitwise-equal* results and the same :class:`ServeStats` type — proof
that the three tiers share one execution path
(:class:`~repro.runtime.server.RequestExecutor`) rather than three
reimplementations: every tier runs one call per request.

The second half proves the protocol itself is the contract: a ~20-line
fake tier speaking ``submit`` / ``try_cancel`` / ``stats`` /
``reset_stats`` / ``close`` sits behind an unmodified ``Session`` and
gets result, error, cancel, deadline and trace delivery for free.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import DeadlineExceededError, FutureCancelledError
from repro.obs import trace as obs_trace
from repro.runtime import InsumResult, InsumServer
from repro.runtime.stats import ServingWindow
from repro.serve import ExecutorBackend, ServeConfig, ServeStats, Session

BACKEND_CONFIGS = {
    "inline": ServeConfig(),
    "threaded": ServeConfig(workers=2),
    "cluster": ServeConfig(workers=2, worker_threads=1),
}


@pytest.fixture(scope="module")
def per_backend_results(serve_workload):
    """The workload's outputs and stats from every backend, computed once."""
    outcome = {}
    for backend, config in BACKEND_CONFIGS.items():
        with Session(backend=backend, config=config) as session:
            futures = session.submit_many(serve_workload)
            outputs = [future.result(timeout=120) for future in futures]
            outcome[backend] = (outputs, session.stats())
    return outcome


def test_all_backends_return_bitwise_equal_results(per_backend_results):
    reference, _ = per_backend_results["inline"]
    for backend in ("threaded", "cluster"):
        outputs, _ = per_backend_results[backend]
        assert len(outputs) == len(reference)
        for index, (expected, actual) in enumerate(zip(reference, outputs)):
            assert np.array_equal(np.asarray(expected), np.asarray(actual)), (
                f"request {index} differs between inline and {backend}"
            )


def test_stats_are_normalized_across_backends(per_backend_results, serve_workload):
    for backend, (_, stats) in per_backend_results.items():
        assert type(stats) is ServeStats  # one report type, not one per tier
        assert all(type(worker) is ServeStats for worker in stats.per_worker)
        assert stats.backend == backend
        assert stats.completed == len(serve_workload)
        assert stats.failed == 0
        assert stats.wall_seconds > 0
        assert stats.throughput_rps > 0
        assert stats.p99_latency_ms >= stats.p95_latency_ms >= stats.p50_latency_ms >= 0
        assert stats.cache_hits + stats.cache_misses > 0
        # Every terminal outcome is accounted for, on every backend.
        assert stats.cancelled == 0
        assert stats.completed + stats.failed + stats.cancelled == stats.submitted
        assert stats.submitted == len(serve_workload)
        # Cluster-only counters exist (and are zero) on every backend.
        assert stats.rejected == 0 and stats.requeued == 0
        summary = stats.summary()
        assert backend in summary and "req/s" in summary
    inline_stats = per_backend_results["inline"][1]
    cluster_stats = per_backend_results["cluster"][1]
    assert inline_stats.workers == 1
    assert cluster_stats.workers == 2
    assert cluster_stats.restarts == 0
    assert len(cluster_stats.per_worker) == 2


def test_map_batches_matches_submit_order(serve_workload):
    with Session(backend="threaded", config=ServeConfig(workers=2)) as session:
        streamed = [np.asarray(out) for out in session.map_batches(serve_workload, window=8)]
    with Session(backend="inline") as session:
        direct = [
            np.asarray(future.result(30)) for future in session.submit_many(serve_workload)
        ]
    assert len(streamed) == len(direct)
    for expected, actual in zip(direct, streamed):
        assert np.array_equal(expected, actual)


def test_run_batch_matches_session_futures(serve_workload):
    """The synchronous helper and the futures path share one execution."""
    with InsumServer(num_workers=2) as server:
        batch = server.run_batch(serve_workload, timeout=60)
    with Session(backend="threaded", config=ServeConfig(workers=2)) as session:
        futures = session.submit_many(serve_workload)
        modern = [future.result(timeout=60) for future in futures]
    assert len(batch) == len(modern)
    for result, output in zip(batch, modern):
        assert np.array_equal(np.asarray(result.unwrap()), np.asarray(output))


class FakeTier:
    """The whole backend protocol: holds requests until ``release()``."""

    def __init__(self):
        self.held, self.window = [], ServingWindow(tier="fake")

    def submit(self, request):
        if request.deadline is not None and request.deadline.expired():
            raise DeadlineExceededError("expired before the fake tier took it")
        request.accept(len(self.held))
        self.held.append(request)

    def try_cancel(self, request):
        if not request.cancel():
            return False
        request.on_done(request.failed(FutureCancelledError("cancelled in the fake tier")))
        return True

    def release(self):
        for request in self.held:
            if request.claim():
                (value,) = request.operands.values()
                error = ValueError("negative") if value < 0 else None
                output = None if error else np.asarray(2 * value)
                request.on_done(InsumResult(request.request_id, request.expression,
                                            output=output, error=error, trace=request.trace))

    def stats(self):
        return self.window.snapshot()

    def reset_stats(self):
        self.window.reset()

    def close(self):
        self.release()


def test_a_custom_tier_sits_behind_a_session_unchanged(monkeypatch):
    tier = FakeTier()
    assert isinstance(tier, ExecutorBackend)
    monkeypatch.setattr("repro.serve.session.build_backend", lambda name, config: tier)
    old = obs_trace.set_enabled(True)
    try:
        with Session(backend="inline") as session:
            good = session.submit("double", x=21)
            bad = session.submit("double", x=-1)
            withdrawn = session.submit("double", x=5)
            late = session.submit("double", deadline_ms=-1.0, x=1)
            assert not good.done() and session.drain(0) is False
            assert withdrawn.cancel() and withdrawn.cancelled()  # still held: cancellable
            with pytest.raises(DeadlineExceededError):  # refused at submit -> failed future
                late.result(timeout=0)
            tier.release()
            assert good.result(timeout=5) == 42
            assert not good.cancel()  # already executed
            with pytest.raises(ValueError, match="negative"):
                bad.result(timeout=5)
            with pytest.raises(FutureCancelledError):
                withdrawn.result(timeout=5)
            assert good.trace() is not None and good.trace().stamp_of("submit") is not None
            assert session.drain(5) is True
            assert type(session.stats()) is ServeStats
    finally:
        obs_trace.set_enabled(old)
