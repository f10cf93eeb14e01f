"""Same-plan request coalescing in InsumServer: concurrency, and results
equal to the per-request ones bit for bit."""

import numpy as np
import pytest

import repro.engine.coalesce as coalesce_module
from repro import InsumServer, SparseEinsum, sparse_einsum
from repro.core.einsum.parser import parse_einsum
from repro.engine.coalesce import split_results, stack_group, widen_expression
from repro.formats import COO, ELL, BlockCOO, BlockGroupCOO, GroupCOO
from repro.kernels import FullyConnectedTensorProduct


@pytest.fixture
def spmm_pattern(rng):
    dense = np.where(rng.random((48, 64)) < 0.1, rng.standard_normal((48, 64)), 0.0)
    from repro.formats import GroupCOO

    return dense, GroupCOO.from_dense(dense, group_size=4)


def test_coalesced_batches_return_per_request_results(spmm_pattern, rng):
    """Many same-plan requests, distinct values: every ticket gets its own
    answer, the bytes its own request returns alone."""
    dense, fmt = spmm_pattern
    requests = [
        ("C[m,n] += A[m,k] * B[k,n]", dict(A=fmt, B=rng.standard_normal((64, 8))))
        for _ in range(48)
    ]
    with InsumServer(num_workers=4) as server:
        results = server.run_batch(requests)
        stats = server.stats()
    assert all(result.ok for result in results)
    for result, (expression, operands) in zip(results, requests):
        np.testing.assert_array_equal(result.unwrap(), sparse_einsum(expression, **operands))
    # With 48 identical-key requests racing 4 workers, at least some must
    # have been served through coalesced batches.
    assert stats.coalesced_requests > 0 and stats.coalesced_batches > 0
    assert stats.coalesced_requests >= 2 * stats.coalesced_batches
    assert 0.0 < stats.coalesce_rate <= 1.0


def test_coalescing_keeps_distinct_patterns_apart(rng):
    """Two patterns behind one expression must never share a batch's metadata."""
    from repro.formats import COO

    dense_a = np.where(rng.random((16, 16)) < 0.3, rng.standard_normal((16, 16)), 0.0)
    dense_b = np.where(rng.random((16, 16)) < 0.3, rng.standard_normal((16, 16)), 0.0)
    fmt_a, fmt_b = COO.from_dense(dense_a), COO.from_dense(dense_b)
    requests = []
    for i in range(32):
        dense, fmt = (dense_a, fmt_a) if i % 2 == 0 else (dense_b, fmt_b)
        requests.append(
            (dense, ("C[m,n] += A[m,k] * B[k,n]", dict(A=fmt, B=rng.standard_normal((16, 4)))))
        )
    with InsumServer(num_workers=2) as server:
        results = server.run_batch([request for _, request in requests])
    for result, (dense, (_, operands)) in zip(results, requests):
        assert result.ok
        np.testing.assert_allclose(result.unwrap(), dense @ operands["B"], atol=1e-9)


def test_coalesce_off_is_bitwise_identical_to_direct_calls(spmm_pattern, rng):
    dense, fmt = spmm_pattern
    requests = [
        ("C[m,n] += A[m,k] * B[k,n]", dict(A=fmt, B=rng.standard_normal((64, 8))))
        for _ in range(12)
    ]
    with InsumServer(num_workers=2, coalesce=False) as server:
        results = server.run_batch(requests)
        stats = server.stats()
    assert stats.coalesced_requests == 0
    for result, (expression, operands) in zip(results, requests):
        np.testing.assert_array_equal(result.unwrap(), sparse_einsum(expression, **operands))


def test_indirect_requests_are_not_coalesced(spmm_pattern, rng):
    """Raw indirect Einsums (bound output) ride the per-request path untouched."""
    dense, fmt = spmm_pattern
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
            requests.append(
                ("C[m,n] += A[m,k] * B[k,n]", dict(A=fmt, B=rng.standard_normal((64, 8))))
            )
    with InsumServer(num_workers=2) as server:
        results = server.run_batch(requests)
    for result, (expression, operands) in zip(results, requests):
        assert result.ok
        np.testing.assert_allclose(result.unwrap(), _direct(expression, operands), atol=1e-9)


def _direct(expression, operands):
    from repro import insum

    if any(hasattr(value, "format_name") for value in operands.values()):
        return sparse_einsum(expression, **operands)
    return insum(expression, **operands)


def test_group_failure_falls_back_to_per_request(monkeypatch, spmm_pattern, rng):
    """A crash in the batched path must degrade, not fail the requests."""
    dense, fmt = spmm_pattern

    def boom(*args, **kwargs):
        raise RuntimeError("forced batching failure")

    monkeypatch.setattr(coalesce_module, "stack_group", boom)
    requests = [
        ("C[m,n] += A[m,k] * B[k,n]", dict(A=fmt, B=rng.standard_normal((64, 8))))
        for _ in range(16)
    ]
    with InsumServer(num_workers=2) as server:
        results = server.run_batch(requests)
        stats = server.stats()
    assert stats.coalesced_requests == 0  # every batch fell back
    for result, (_, operands) in zip(results, requests):
        assert result.ok
        np.testing.assert_allclose(result.unwrap(), dense @ operands["B"], atol=1e-9)


def test_bad_request_inside_window_still_fails_cleanly(spmm_pattern, rng):
    dense, fmt = spmm_pattern
    good = ("C[m,n] += A[m,k] * B[k,n]", dict(A=fmt, B=rng.standard_normal((64, 8))))
    bad = ("C[m,n] += A[m,k] * B[k,n]", dict(A=fmt, B=rng.standard_normal((7, 8))))
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


def test_single_worker_coalesces_queued_backlog(spmm_pattern, rng):
    dense, fmt = spmm_pattern
    requests = [
        ("C[m,n] += A[m,k] * B[k,n]", dict(A=fmt, B=rng.standard_normal((64, 8))))
        for _ in range(20)
    ]
    with InsumServer(num_workers=1, coalesce_max=8) as server:
        results = server.run_batch(requests)
        stats = server.stats()
    assert all(result.ok for result in results)
    assert stats.coalesced_requests > 0
    for result, (_, operands) in zip(results, requests):
        np.testing.assert_allclose(result.unwrap(), dense @ operands["B"], atol=1e-9)


# ---------------------------------------------------------------------------
# Coalesced == per-request, bit for bit
# ---------------------------------------------------------------------------
#: Every fixed-length format, as the coalescer receives it.
FIXED_LENGTH = {
    "ell": ELL.from_dense,
    "coo": COO.from_dense,
    "groupcoo": lambda dense: GroupCOO.from_dense(dense, group_size=4),
    "blockcoo": lambda dense: BlockCOO.from_dense(dense, (4, 4)),
    "blockgroupcoo": lambda dense: BlockGroupCOO.from_dense(dense, (8, 4), group_size=2),
}
#: ``(expression, dense operand, its shape)`` of SpMM and SpMV over a 48 x 64 ``A``.
PRODUCTS = {
    "spmm": ("C[m,n] += A[m,k] * B[k,n]", "B", (64, 9)),
    "spmv": ("y[m] += A[m,k] * x[k]", "x", (64,)),
}
#: The stack sizes ``InsumServer`` pads a group to: powers of two up to
#: ``coalesce_max`` (16 by default).
PADS = (2, 4, 8, 16)


@pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int64], ids=lambda d: d.__name__)
@pytest.mark.parametrize("product", PRODUCTS)
@pytest.mark.parametrize("fmt", FIXED_LENGTH)
def test_coalesced_results_are_the_per_request_results_bit_for_bit(executor, fmt, product, dtype):
    """What ``InsumServer._execute_group`` runs — the widened expression over
    ``stack_group``'s padded stack, split back — returns each request's own
    bytes, for float normals too."""
    rng = np.random.default_rng(sum(map(ord, fmt + product)) + np.dtype(dtype).itemsize)
    expression, name, shape = PRODUCTS[product]
    widened, _ = widen_expression(parse_einsum(expression))
    pattern = FIXED_LENGTH[fmt](np.where(rng.random((48, 64)) < 0.25, 1, 0).astype(dtype))
    stored = pattern.tensors("A")["AV"]

    def draw(shape):
        values = rng.standard_normal(shape) * 4
        return (np.round(values) if dtype is np.int64 else values).astype(dtype)

    for pad in PADS:
        count = pad // 2 + 1 if pad > 2 else 2  # a group the server pads to ``pad``
        group = [
            {"A": pattern.with_values(draw(stored.shape) * (stored != 0)), name: draw(shape)}
            for _ in range(count)
        ]
        batched = SparseEinsum(widened)(**stack_group(group, "A", pad_to=pad))
        coalesced_results = split_results(np.asarray(batched), count)
        for position, (coalesced, operands) in enumerate(zip(coalesced_results, group)):
            alone = SparseEinsum(expression)(**operands)
            assert coalesced.dtype == alone.dtype
            assert coalesced.tobytes() == alone.tobytes(), f"pad {pad}, request {position}"
