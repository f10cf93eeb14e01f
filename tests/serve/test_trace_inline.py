"""Inline-backend ``Future.trace()`` coverage and mixed-backend stats parity.

Closes the gap left by the per-tier span tests: the inline backend's
trace must behave like a first-class citizen (present after success
*and* failure, absent before completion, spans covering the measured
latency), and a trace-replay run that mixes backends mid-session must
produce :class:`~repro.serve.ServeStats` that agree with the replay
ledger on every conservation count.
"""

from __future__ import annotations

import pytest

from repro.replay import replay, synthesize
from repro.serve import ServeConfig, Session


@pytest.fixture(scope="module")
def replay_trace(seed):
    """A small mixed-tenant trace shared by the tests in this module."""
    return synthesize("serve-trace-inline", seed=seed, num_records=16, rate_rps=400.0)


class TestInlineFutureTrace:
    def test_trace_present_once_done(self, spmm_operands):
        with Session("inline") as session:
            future = session.submit("C[m,n] += A[m,k] * B[k,n]", **spmm_operands)
            future.result(timeout=60)
        assert future.trace() is not None

    def test_spans_cover_inline_latency(self, spmm_operands):
        with Session("inline") as session:
            future = session.submit("C[m,n] += A[m,k] * B[k,n]", **spmm_operands)
            future.result(timeout=60)
        trace = future.trace()
        spans = trace.spans()
        assert {"queue.wait", "execute"} <= {span.name for span in spans}
        assert future.latency_ms is not None
        assert trace.total_span_ms() <= future.latency_ms * 1.05
        assert trace.total_span_ms() >= future.latency_ms * 0.5

    def test_failed_request_still_carries_trace(self):
        import numpy as np

        with Session("inline") as session:
            future = session.submit("this is not an einsum", x=np.zeros(3))
            with pytest.raises(Exception):
                future.result(timeout=60)
        # The inline tier resolves errors through the same path as
        # results, so the trace survives the failure.
        assert future.trace() is not None

    def test_trace_ids_are_unique_per_request(self, spmm_operands):
        with Session("inline") as session:
            futures = [
                session.submit("C[m,n] += A[m,k] * B[k,n]", **spmm_operands)
                for _ in range(4)
            ]
            for future in futures:
                future.result(timeout=60)
        ids = {future.trace().trace_id for future in futures}
        assert len(ids) == 4

    def test_replayed_inline_requests_are_traced(self, replay_trace):
        with Session("inline") as session:
            report = replay(replay_trace, session, time_scale=0.0)
        assert report.completed == len(replay_trace)


class TestMixedBackendStatsParity:
    def test_stats_account_for_split_replay(self, replay_trace):
        """Mid-session backend mix: ServeStats agree with the replay ledger."""
        half = len(replay_trace) // 2
        first, second = replay_trace.subset(0, half), replay_trace.subset(half)

        inline = Session("inline")
        threaded = Session("threaded", config=ServeConfig(workers=2))
        try:
            report_inline = replay(first, inline, time_scale=0.0)
            report_threaded = replay(second, threaded, time_scale=0.0)
            stats_inline, stats_threaded = inline.stats(), threaded.stats()
        finally:
            inline.close()
            threaded.close()

        # Each backend's normalized stats obey the invariant on its own...
        for stats in (stats_inline, stats_threaded):
            assert stats.completed + stats.failed + stats.cancelled == stats.submitted
        # ...and the pair accounts for exactly the trace, matching the
        # replay reports request for request.
        merged = report_inline.merge(report_threaded)
        assert merged.submitted == len(replay_trace)
        assert stats_inline.submitted + stats_threaded.submitted == merged.submitted
        assert stats_inline.completed + stats_threaded.completed == merged.completed
        assert stats_inline.backend == "inline"
        assert stats_threaded.backend == "threaded"
        # Latency percentiles normalize to the same field set either way.
        assert stats_inline.to_dict().keys() == stats_threaded.to_dict().keys()
