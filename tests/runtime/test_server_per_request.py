"""One call per request in InsumServer: every request runs its expression's
own operator, and returns the bytes a direct call returns, under concurrency
and next to failing neighbours."""

import dataclasses

import numpy as np
import pytest

from repro import InsumServer, ServeConfig, SparseEinsum, insum, sparse_einsum
from repro.cluster import ClusterServer
from repro.formats import COO, ELL, BlockCOO, BlockGroupCOO, GroupCOO
from repro.kernels import FullyConnectedTensorProduct

SPMM = "C[m,n] += A[m,k] * B[k,n]"


@pytest.fixture
def spmm_pattern(rng):
    dense = np.where(rng.random((48, 64)) < 0.1, rng.standard_normal((48, 64)), 0.0)
    return dense, GroupCOO.from_dense(dense, group_size=4)


def _direct(expression, operands):
    if any(hasattr(value, "format_name") for value in operands.values()):
        return sparse_einsum(expression, **operands)
    return insum(expression, **operands)


def test_same_plan_requests_each_return_their_own_result(spmm_pattern, rng):
    """Many same-plan requests with distinct values, racing four workers:
    every ticket gets the bytes its own request returns alone."""
    dense, fmt = spmm_pattern
    requests = [(SPMM, dict(A=fmt, B=rng.standard_normal((64, 8)))) for _ in range(48)]
    with InsumServer(num_workers=4) as server:
        results = server.run_batch(requests)
        stats = server.stats()
    assert all(result.ok for result in results)
    assert stats.completed == len(requests) and stats.failed == 0
    for result, (expression, operands) in zip(results, requests):
        np.testing.assert_array_equal(result.unwrap(), sparse_einsum(expression, **operands))


def test_the_frozen_grouping_counters_read_zero(spmm_pattern, rng):
    """The three names the frozen layer harness reads still resolve, and
    read 0: no request is served as part of a group."""
    _, fmt = spmm_pattern
    requests = [(SPMM, dict(A=fmt, B=rng.standard_normal((64, 8)))) for _ in range(16)]
    with InsumServer(num_workers=1) as server:
        server.run_batch(requests)
        stats = server.stats()
    assert stats.completed == len(requests)
    assert (stats.coalesced_requests, stats.coalesced_batches, stats.coalesce_rate) == (0, 0, 0.0)


def test_distinct_patterns_behind_one_expression_stay_apart(rng):
    """Two patterns behind one expression share an operator, never a result."""
    dense_a = np.where(rng.random((16, 16)) < 0.3, rng.standard_normal((16, 16)), 0.0)
    dense_b = np.where(rng.random((16, 16)) < 0.3, rng.standard_normal((16, 16)), 0.0)
    fmt_a, fmt_b = COO.from_dense(dense_a), COO.from_dense(dense_b)
    requests = []
    for i in range(32):
        dense, fmt = (dense_a, fmt_a) if i % 2 == 0 else (dense_b, fmt_b)
        requests.append((dense, (SPMM, dict(A=fmt, B=rng.standard_normal((16, 4))))))
    with InsumServer(num_workers=2) as server:
        results = server.run_batch([request for _, request in requests])
    for result, (dense, (_, operands)) in zip(results, requests):
        assert result.ok
        np.testing.assert_allclose(result.unwrap(), dense @ operands["B"], atol=1e-9)


def test_indirect_and_sparse_requests_interleave(spmm_pattern, rng):
    """Raw indirect Einsums (bound output) and sparse SpMMs share the queue,
    each on its own operator."""
    _, fmt = spmm_pattern
    equivariant = FullyConnectedTensorProduct(l_max=1, channels=4)
    x, y, w = equivariant.random_inputs(batch=2, rng=rng)
    z = np.zeros((2, equivariant.slot_dimension, equivariant.channels))
    requests = []
    for i in range(12):
        if i % 3 == 2:
            requests.append(
                (equivariant.expression, dict(Z=z.copy(), X=x, Y=y, W=w, **equivariant._grouped))
            )
        else:
            requests.append((SPMM, dict(A=fmt, B=rng.standard_normal((64, 8)))))
    with InsumServer(num_workers=2) as server:
        results = server.run_batch(requests)
    for result, (expression, operands) in zip(results, requests):
        assert result.ok
        np.testing.assert_allclose(result.unwrap(), _direct(expression, operands), atol=1e-9)


def test_served_indirect_results_are_the_direct_call_results_bit_for_bit(executor, rng):
    """The dense indirect path: a tensor product served by two workers
    returns the bytes ``insum`` returns on the same operands."""
    equivariant = FullyConnectedTensorProduct(l_max=1, channels=4)
    z = np.zeros((2, equivariant.slot_dimension, equivariant.channels))
    requests = []
    for _ in range(6):
        x, y, w = equivariant.random_inputs(batch=2, rng=rng)
        operands = dict(Z=z.copy(), X=x, Y=y, W=w, **equivariant._grouped)
        requests.append((equivariant.expression, operands))
    expected = [
        insum(expression, **{**operands, "Z": z.copy()}) for expression, operands in requests
    ]
    with InsumServer(num_workers=2) as server:
        results = server.run_batch(requests)
    for position, (result, alone) in enumerate(zip(results, expected)):
        served = result.unwrap()
        assert served.dtype == alone.dtype
        assert served.tobytes() == alone.tobytes(), f"request {position}"


def test_a_call_that_raises_fails_only_its_own_request(monkeypatch, spmm_pattern, rng):
    """An exception inside one request's call fails that request alone; the
    worker serves the ones queued behind it."""
    dense, fmt = spmm_pattern
    requests = [(SPMM, dict(A=fmt, B=rng.standard_normal((64, 8)))) for _ in range(8)]
    doomed = requests[3][1]["B"]
    with InsumServer(num_workers=1) as server:
        execute = server.executor.execute

        def raise_for_one(expression, operands):
            if operands.get("B") is doomed:
                raise RuntimeError("forced call failure")
            return execute(expression, operands)

        monkeypatch.setattr(server.executor, "execute", raise_for_one)
        results = server.run_batch(requests)
        stats = server.stats()
    assert not results[3].ok and "forced call failure" in str(results[3].error)
    assert stats.failed == 1 and stats.completed == len(requests) - 1
    for position, result in enumerate(results):
        if position != 3:
            expected = dense @ requests[position][1]["B"]
            np.testing.assert_allclose(result.unwrap(), expected, atol=1e-9)


def test_bad_request_among_same_plan_ones_fails_alone(spmm_pattern, rng):
    dense, fmt = spmm_pattern
    good = (SPMM, dict(A=fmt, B=rng.standard_normal((64, 8))))
    bad = (SPMM, dict(A=fmt, B=rng.standard_normal((7, 8))))
    requests = [good, bad] + [good] * 6
    with InsumServer(num_workers=1) as server:
        results = server.run_batch(requests)
        stats = server.stats()
    assert not results[1].ok
    assert stats.failed == 1 and stats.completed == len(requests) - 1
    for position, result in enumerate(results):
        if position == 1:
            continue
        np.testing.assert_allclose(result.unwrap(), dense @ requests[position][1]["B"], atol=1e-9)


def test_single_worker_serves_a_queued_backlog(spmm_pattern, rng):
    dense, fmt = spmm_pattern
    requests = [(SPMM, dict(A=fmt, B=rng.standard_normal((64, 8)))) for _ in range(20)]
    with InsumServer(num_workers=1) as server:
        results = server.run_batch(requests)
        stats = server.stats()
    assert all(result.ok for result in results)
    assert stats.completed == len(requests)
    for result, (_, operands) in zip(results, requests):
        np.testing.assert_allclose(result.unwrap(), dense @ operands["B"], atol=1e-9)


@pytest.mark.parametrize(
    "build",
    [
        lambda: InsumServer(num_workers=1, coalesce=True),
        lambda: ClusterServer(num_workers=1, coalesce=True),
        lambda: ServeConfig(coalesce=True),
        lambda: dataclasses.replace(ServeConfig(workers=2), coalesce=True),
    ],
    ids=["InsumServer", "ClusterServer", "ServeConfig", "dataclasses.replace"],
)
def test_the_removed_grouping_option_is_refused(build):
    """``coalesce`` is gone from every tier and from ``ServeConfig``:
    passing it is a ``TypeError``, not a silent no-op."""
    with pytest.raises(TypeError):
        build()


# ---------------------------------------------------------------------------
# Served == direct call, bit for bit
# ---------------------------------------------------------------------------
#: Every fixed-length format.
FIXED_LENGTH = {
    "ell": ELL.from_dense,
    "coo": COO.from_dense,
    "groupcoo": lambda dense: GroupCOO.from_dense(dense, group_size=4),
    "blockcoo": lambda dense: BlockCOO.from_dense(dense, (4, 4)),
    "blockgroupcoo": lambda dense: BlockGroupCOO.from_dense(dense, (8, 4), group_size=2),
}
#: ``(expression, dense operand, its shape)`` of SpMM and SpMV over a 48 x 64 ``A``.
PRODUCTS = {
    "spmm": (SPMM, "B", (64, 9)),
    "spmv": ("y[m] += A[m,k] * x[k]", "x", (64,)),
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int64], ids=lambda d: d.__name__)
@pytest.mark.parametrize("product", PRODUCTS)
@pytest.mark.parametrize("fmt", FIXED_LENGTH)
def test_served_results_are_the_direct_call_results_bit_for_bit(executor, fmt, product, dtype):
    """Requests that share a pattern and differ in values, served by two
    workers through the expression's pinned operator, return the bytes and
    dtype of a fresh ``SparseEinsum`` called on each request alone, for
    float normals too."""
    rng = np.random.default_rng(sum(map(ord, fmt + product)) + np.dtype(dtype).itemsize)
    expression, name, shape = PRODUCTS[product]
    pattern = FIXED_LENGTH[fmt](np.where(rng.random((48, 64)) < 0.25, 1, 0).astype(dtype))
    stored = pattern.tensors("A")["AV"]

    def draw(shape):
        values = rng.standard_normal(shape) * 4
        return (np.round(values) if dtype is np.int64 else values).astype(dtype)

    requests = []
    for _ in range(6):
        values = pattern.with_values(draw(stored.shape) * (stored != 0))
        requests.append((expression, {"A": values, name: draw(shape)}))
    with InsumServer(num_workers=2) as server:
        results = server.run_batch(requests)
    for position, (result, (_, operands)) in enumerate(zip(results, requests)):
        served, alone = result.unwrap(), SparseEinsum(expression)(**operands)
        assert served.dtype == alone.dtype
        assert served.tobytes() == alone.tobytes(), f"request {position}"
