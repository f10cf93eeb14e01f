"""End-to-end tests for the InsumServer front door."""

import threading

import numpy as np
import pytest

from repro import InsumServer, ServeConfig, Session, SparseEinsum, insum, sparse_einsum
from repro.errors import EinsumValidationError, SessionClosedError
from repro.formats import COO, GroupCOO
from repro.runtime import Request
from repro.runtime.server import RequestExecutor


def _mixed_workload(rng, count=100):
    """``count`` requests cycling over three distinct expressions.

    Shapes are fixed per expression so a warm plan cache serves every
    repeat — the serving pattern the runtime is built for.
    """
    spmm_matrix = np.where(rng.random((32, 48)) < 0.2, rng.standard_normal((32, 48)), 0.0)
    spmv_matrix = np.where(rng.random((24, 24)) < 0.3, rng.standard_normal((24, 24)), 0.0)
    spmm = GroupCOO.from_dense(spmm_matrix, group_size=4)
    spmv = COO.from_dense(spmv_matrix)
    recipes = [
        ("C[m,n] += A[m,k] * B[k,n]", lambda: dict(A=spmm, B=rng.standard_normal((48, 8)))),
        ("y[m] += A[m,k] * x[k]", lambda: dict(A=spmv, x=rng.standard_normal(24))),
        ("C[m,n] += A[k,m] * B[k,n]", lambda: dict(A=spmv, B=rng.standard_normal((24, 6)))),
    ]
    return [
        (expression, make())
        for expression, make in (recipes[i % len(recipes)] for i in range(count))
    ]


def test_mixed_100_request_workload_end_to_end(rng):
    """The ISSUE acceptance scenario: 100 requests over 3 expressions.

    Every request's output must be identical to a direct ``sparse_einsum``
    call (same code path, deterministic NumPy execution), and the plan
    cache must serve >90% of lookups over the window.
    """
    requests = _mixed_workload(rng, count=100)
    with InsumServer(num_workers=4) as server:
        results = server.run_batch(requests)
        stats = server.stats()

    assert len(results) == 100
    assert stats.completed == 100 and stats.failed == 0
    for result, (expression, operands) in zip(results, requests):
        assert result.ok
        np.testing.assert_array_equal(result.unwrap(), sparse_einsum(expression, **operands))
    assert len({expression for expression, _ in requests}) == 3
    assert stats.cache_hit_rate > 0.9
    assert stats.throughput_rps > 0
    assert stats.p95_latency_ms >= stats.p50_latency_ms > 0
    assert "hit rate" in stats.summary()


def test_run_batch_returns_results_in_request_order(rng):
    dense = np.where(rng.random((8, 8)) < 0.5, rng.standard_normal((8, 8)), 0.0)
    fmt = COO.from_dense(dense)
    expression = "C[m,n] += A[m,k] * B[k,n]"
    with InsumServer(num_workers=2) as server:
        early, late = server.run_batch(
            [(expression, dict(A=fmt, B=np.eye(8))), (expression, dict(A=fmt, B=2.0 * np.eye(8)))]
        )
    np.testing.assert_allclose(early.unwrap(), dense, atol=1e-12)
    np.testing.assert_allclose(late.unwrap(), 2.0 * dense, atol=1e-12)
    assert (early.request_id, late.request_id) == (0, 1)


def test_dense_indirect_requests_use_insum_path(rng):
    coo = COO.from_dense(np.where(rng.random((8, 12)) < 0.4, 1.0, 0.0))
    b = rng.standard_normal((12, 4))
    operands = dict(
        C=np.zeros((8, 4)), AV=coo.values, AM=coo.coords[0], AK=coo.coords[1], B=b
    )
    expression = "C[AM[p],n] += AV[p] * B[AK[p],n]"
    with InsumServer(num_workers=2) as server:
        (result,) = server.run_batch([(expression, operands)])
    np.testing.assert_array_equal(result.unwrap(), insum(expression, **operands))


def test_failed_request_reports_error_and_server_survives(rng):
    fmt = COO.from_dense(np.eye(4))
    with InsumServer(num_workers=2) as server:
        expression = "C[m,n] += A[m,k] * B[k,n]"
        bad_result, good_result = server.run_batch(
            [(expression, dict(A=fmt, B=np.zeros((7, 3)))), (expression, dict(A=fmt, B=np.eye(4)))]
        )
        stats = server.stats()
    assert not bad_result.ok
    with pytest.raises(EinsumValidationError):
        bad_result.unwrap()
    assert good_result.ok
    np.testing.assert_array_equal(good_result.unwrap(), np.eye(4))
    assert stats.failed == 1 and stats.completed == 1


def test_run_batch_numbers_requests_from_zero(rng):
    fmt = COO.from_dense(np.eye(4))
    with InsumServer(num_workers=2) as server:
        results = server.run_batch(
            ("C[m,n] += A[m,k] * B[k,n]", dict(A=fmt, B=scale * np.eye(4)))
            for scale in (1.0, 2.0, 3.0)
        )
    assert [r.request_id for r in results] == [0, 1, 2]
    assert all(r.ok for r in results)


def test_operator_reuse_across_requests(rng):
    fmt = COO.from_dense(np.eye(4))
    with InsumServer(num_workers=1) as server:
        server.run_batch([("C[m,n] += A[m,k] * B[k,n]", dict(A=fmt, B=np.eye(4)))] * 5)
        assert server.expressions_served == ["C[m,n] += A[m,k] * B[k,n]"]


def test_reset_stats_opens_new_window(rng):
    fmt = COO.from_dense(np.eye(4))
    with InsumServer(num_workers=1) as server:
        server.run_batch([("C[m,n] += A[m,k] * B[k,n]", dict(A=fmt, B=np.eye(4)))])
        server.reset_stats()
        assert server.stats().completed == 0
        server.run_batch([("C[m,n] += A[m,k] * B[k,n]", dict(A=fmt, B=np.eye(4)))])
        stats = server.stats()
    assert stats.completed == 1
    assert stats.cache_hit_rate == 1.0  # warm cache: the repeat is a pure hit


def test_submit_after_close_raises(rng):
    server = InsumServer(num_workers=1)
    server.close()
    with pytest.raises(RuntimeError, match="closed"):
        server.run_batch([("C[i] += A[i]", dict(A=np.ones(3), C=np.zeros(3)))])


class _GatedQueue:
    """The server's queue, with the first request ``put`` held at a gate."""

    def __init__(self, inner):
        self.inner = inner
        self.entered = threading.Event()
        self.gate = threading.Event()

    def put(self, item):
        if item is not None and not self.entered.is_set():
            self.entered.set()
            assert self.gate.wait(30)
        self.inner.put(item)

    def __getattr__(self, name):
        return getattr(self.inner, name)


def test_submit_racing_close_is_served_or_refused_never_lost():
    """A submit caught between its closed check and its queue put while
    ``close()`` runs must not land behind the shutdown tokens: it is
    served before the workers exit, and a submit after close is refused."""
    server = InsumServer(num_workers=2)
    server._queue = gated = _GatedQueue(server._queue)
    landed: list = []
    request = Request("C[i] += A[i]", dict(A=np.ones(3), C=np.zeros(3)), on_done=landed.append)
    submitter = threading.Thread(target=server.submit, args=(request,))
    submitter.start()
    assert gated.entered.wait(30)  # past the closed check, not yet queued
    closer = threading.Thread(target=server.close)
    closer.start()
    closer.join(0.2)
    assert closer.is_alive()  # close() waits for the in-progress submit
    gated.gate.set()
    submitter.join(30)
    closer.join(30)
    assert not submitter.is_alive() and not closer.is_alive()
    assert len(landed) == 1 and landed[0].ok
    np.testing.assert_array_equal(landed[0].unwrap(), np.ones(3))
    with pytest.raises(SessionClosedError):
        server.submit(Request("C[i] += A[i]", dict(A=np.ones(3), C=np.zeros(3)), on_done=landed.append))
    assert len(landed) == 1


def test_a_held_request_does_not_hold_back_the_next(rng, monkeypatch):
    """Each worker thread takes one request per queue read: while one worker
    is held inside a request's execution, a request submitted right behind
    it runs on the other worker instead of waiting in the held one's batch."""
    held_expression = "C[i] += A[i]"
    held, release = threading.Event(), threading.Event()
    spmv = COO.from_dense(np.where(rng.random((24, 24)) < 0.3, rng.standard_normal((24, 24)), 0))
    x = rng.standard_normal(24)
    with Session("threaded", ServeConfig(workers=2)) as session:
        executor = session._backend.executor
        execute = executor.execute

        def held_at_the_event(expression, operands):
            if expression == held_expression:
                held.set()
                release.wait(30)
            return execute(expression, operands)

        monkeypatch.setattr(executor, "execute", held_at_the_event)
        try:
            first = session.submit(held_expression, A=np.ones(3), C=np.zeros(3))
            second = session.submit("y[m] += A[m,k] * x[k]", A=spmv, x=x)
            output = second.result(timeout=10)
            assert held.is_set() and not first.done()
        finally:
            release.set()
        np.testing.assert_array_equal(first.result(timeout=30), np.ones(3))
    np.testing.assert_array_equal(output, sparse_einsum("y[m] += A[m,k] * x[k]", A=spmv, x=x))


@pytest.mark.parametrize("as_format", [False, True], ids=["dense", "coo"])
def test_an_auto_format_request_profiles_its_operand_once(rng, monkeypatch, as_format):
    """The executor leaves the tuner to its SparseEinsum(format="auto"): one
    profile per request, and the direct operator's bits."""
    import repro.tuner.auto as tuner_auto

    calls = []
    profile = tuner_auto.profile_operand
    monkeypatch.setattr(
        tuner_auto, "profile_operand", lambda operand: calls.append(1) or profile(operand)
    )
    dense = np.where(rng.random((32, 48)) < 0.1, rng.standard_normal((32, 48)), 0.0)
    operands = dict(A=COO.from_dense(dense) if as_format else dense, B=rng.standard_normal((48, 8)))
    expression = "C[m,n] += A[m,k] * B[k,n]"
    output = RequestExecutor(auto_format=True).execute(expression, operands)
    assert len(calls) == 1
    np.testing.assert_array_equal(output, SparseEinsum(expression, format="auto")(**operands))


def test_the_executor_tables_stay_bounded(rng, monkeypatch):
    """Both executor tables are bounded memos: distinct expressions, valid or
    not, evict the least recent, and a request on an evicted expression
    rebuilds its operator and returns the same bytes."""
    from repro.errors import ReproError
    from repro.runtime import plan_cache

    monkeypatch.setattr(plan_cache, "MAXSIZE", 4)
    executor = RequestExecutor(auto_format=True)
    dense = np.where(rng.random((16, 12)) < 0.2, rng.integers(1, 5, (16, 12)), 0.0)
    operands = dict(A=dense, B=rng.integers(-3, 4, (12, 5)).astype(np.float64))

    def expression(i: int) -> str:
        return f"C[m,n] += A[m,k{i}] * B[k{i},n]"

    first = executor.execute(expression(0), operands).tobytes()
    for i in range(1, 3 * plan_cache.MAXSIZE):
        if i % 3:
            executor.execute(expression(i), operands)
        else:
            with pytest.raises(ReproError):
                executor.execute(f"C[m,n] += A[m,k{i}] * B[", operands)
        assert len(executor._operators) <= plan_cache.MAXSIZE
        assert len(executor._classes) <= plan_cache.MAXSIZE
    assert expression(0) not in executor.expressions()
    assert executor.execute(expression(0), operands).tobytes() == first
    np.testing.assert_array_equal(np.frombuffer(first), (dense @ operands["B"]).ravel())
