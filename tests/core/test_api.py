"""Tests for the public Insum / sparse_einsum API."""

import numpy as np
import pytest

from repro import Insum, InductorConfig, SparseEinsum, insum, sparse_einsum
from repro.errors import EinsumValidationError, LoweringError
from repro.formats import COO, CSR, BlockGroupCOO, GroupCOO


def test_insum_one_shot_coo_spmm(small_sparse_matrix, rng):
    coo = COO.from_dense(small_sparse_matrix)
    b = rng.standard_normal((12, 4))
    out = insum(
        "C[AM[p],n] += AV[p] * B[AK[p],n]",
        C=np.zeros((8, 4)),
        AV=coo.values,
        AM=coo.coords[0],
        AK=coo.coords[1],
        B=b,
    )
    np.testing.assert_allclose(out, small_sparse_matrix @ b, atol=1e-10)


def test_insum_eager_backend_matches_inductor(small_sparse_matrix, rng):
    coo = COO.from_dense(small_sparse_matrix)
    b = rng.standard_normal((12, 4))
    tensors = dict(
        C=np.zeros((8, 4)), AV=coo.values, AM=coo.coords[0], AK=coo.coords[1], B=b
    )
    expected = np.einsum("mk,kn->mn", small_sparse_matrix, b)
    for backend in ("inductor", "eager"):
        out = insum("C[AM[p],n] += AV[p] * B[AK[p],n]", backend=backend, **tensors)
        np.testing.assert_allclose(out, expected, atol=1e-10)


#: ``(expression with its assignment operator as {op}, np.einsum equation,
#: operand shapes)`` of a scalar and a matrix output.
DTYPE_CASES = {
    "scalar": ("s {op} x[i] * y[i]", "i,i->", {"s": (), "x": (7,), "y": (7,)}),
    "matrix": ("C[m,n] {op} A[m,k] * B[k,n]", "mk,kn->mn", {"C": (5, 3), "A": (5, 4), "B": (4, 3)}),
}


@pytest.mark.parametrize("op", ["=", "+="])
@pytest.mark.parametrize("output", DTYPE_CASES)
@pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int64])
@pytest.mark.parametrize("backend", ["inductor", "eager"])
def test_result_dtype_is_the_operands_result_type(backend, dtype, output, op, rng):
    expression, equation, shapes = DTYPE_CASES[output]
    tensors = {name: rng.integers(-4, 5, shape).astype(dtype) for name, shape in shapes.items()}
    base, *operands = tensors.values()
    result = insum(expression.format(op=op), backend=backend, **tensors)
    assert result.dtype == np.result_type(*operands)
    expected = np.einsum(equation, *operands) + (base if op == "+=" else 0)
    np.testing.assert_array_equal(result, expected)


def test_insum_unknown_backend():
    with pytest.raises(LoweringError, match="backend"):
        Insum("C[i] += A[i]", backend="tpu")


def test_insum_compile_is_cached(small_sparse_matrix, rng):
    coo = COO.from_dense(small_sparse_matrix)
    b = rng.standard_normal((12, 4))
    op = Insum("C[AM[p],n] += AV[p] * B[AK[p],n]")
    tensors = dict(C=np.zeros((8, 4)), AV=coo.values, AM=coo.coords[0], AK=coo.coords[1], B=b)
    first = op.compile(**tensors)
    second = op.compile(**tensors)
    assert first is second
    assert op.compile_seconds > 0.0


def test_insum_recompiles_for_new_shapes(small_sparse_matrix, rng):
    coo = COO.from_dense(small_sparse_matrix)
    op = Insum("C[AM[p],n] += AV[p] * B[AK[p],n]")
    base = dict(AV=coo.values, AM=coo.coords[0], AK=coo.coords[1])
    first = op.compile(C=np.zeros((8, 4)), B=rng.standard_normal((12, 4)), **base)
    second = op.compile(C=np.zeros((8, 7)), B=rng.standard_normal((12, 7)), **base)
    assert first is not second


def test_sparse_einsum_groupcoo(medium_sparse_matrix, rng):
    b = rng.standard_normal((96, 10))
    out = sparse_einsum(
        "C[m,n] += A[m,k] * B[k,n]", A=GroupCOO.from_dense(medium_sparse_matrix), B=b
    )
    np.testing.assert_allclose(out, medium_sparse_matrix @ b, atol=1e-10)


def test_sparse_einsum_blockgroupcoo_returns_logical_shape(block_sparse_matrix, rng):
    b = rng.standard_normal((64, 10))
    out = sparse_einsum(
        "C[m,n] += A[m,k] * B[k,n]",
        A=BlockGroupCOO.from_dense(block_sparse_matrix, (8, 8), group_size=2),
        B=b,
    )
    assert out.shape == (64, 10)
    np.testing.assert_allclose(out, block_sparse_matrix @ b, atol=1e-10)


def test_sparse_einsum_requires_a_sparse_operand(rng):
    with pytest.raises(EinsumValidationError, match="SparseFormat"):
        sparse_einsum(
            "C[m,n] += A[m,k] * B[k,n]",
            A=rng.standard_normal((4, 4)),
            B=rng.standard_normal((4, 4)),
        )


def test_sparse_einsum_rejects_two_sparse_operands(small_sparse_matrix):
    fmt = COO.from_dense(small_sparse_matrix)
    with pytest.raises(EinsumValidationError, match="single sparse operand"):
        sparse_einsum("C[m,n] += A[m,k] * B[k,n]", A=fmt, B=COO.from_dense(small_sparse_matrix.T))


def test_sparse_einsum_respects_provided_output(medium_sparse_matrix, rng):
    b = rng.standard_normal((96, 3))
    existing = rng.standard_normal((64, 3))
    out = sparse_einsum(
        "C[m,n] += A[m,k] * B[k,n]",
        A=GroupCOO.from_dense(medium_sparse_matrix),
        B=b,
        C=existing.copy(),
    )
    np.testing.assert_allclose(out, existing + medium_sparse_matrix @ b, atol=1e-10)


def test_sparse_einsum_class_exposes_compiled(medium_sparse_matrix, rng):
    op = SparseEinsum("C[m,n] += A[m,k] * B[k,n]")
    out = op(A=GroupCOO.from_dense(medium_sparse_matrix), B=rng.standard_normal((96, 6)))
    assert out.shape == (64, 6)
    assert op.compiled is not None
    assert op.modeled_ms is not None and op.modeled_ms > 0
    assert op.compile_seconds > 0


def test_sparse_einsum_estimate_does_not_require_values(medium_sparse_matrix):
    op = SparseEinsum("C[m,n] += A[m,k] * B[k,n]")
    compiled = op.estimate(
        A=GroupCOO.from_dense(medium_sparse_matrix), B=np.zeros((96, 128), dtype=np.float32)
    )
    assert compiled.estimated_ms > 0


def test_sparse_einsum_with_csr_converted_format(medium_sparse_matrix, rng):
    csr = CSR.from_dense(medium_sparse_matrix)
    out = sparse_einsum(
        "C[m,n] += A[m,k] * B[k,n]", A=GroupCOO.from_csr(csr), B=rng.standard_normal((96, 4))
    )
    assert out.shape == (64, 4)


def test_insum_with_custom_config(small_sparse_matrix, rng):
    coo = COO.from_dense(small_sparse_matrix)
    b = rng.standard_normal((12, 4))
    out = insum(
        "C[AM[p],n] += AV[p] * B[AK[p],n]",
        config=InductorConfig.torchinductor_default(),
        C=np.zeros((8, 4)),
        AV=coo.values,
        AM=coo.coords[0],
        AK=coo.coords[1],
        B=b,
    )
    np.testing.assert_allclose(out, small_sparse_matrix @ b, atol=1e-10)
