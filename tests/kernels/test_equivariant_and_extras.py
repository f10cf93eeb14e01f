"""Tests for the equivariant tensor product and the extra kernels."""

import numpy as np
import pytest

from repro.datasets import fully_connected_cg_tensor
from repro.formats import COO
from repro.kernels import (
    FullyConnectedTensorProduct,
    coo_elementwise_multiply,
    sddmm,
    spmv,
)


@pytest.mark.parametrize("l_max", [0, 1, 2])
def test_tensor_product_matches_reference(l_max, rng):
    layer = FullyConnectedTensorProduct(l_max=l_max, channels=4)
    x, y, w = layer.random_inputs(batch=6, rng=3)
    out = layer(x, y, w)
    np.testing.assert_allclose(out, layer.reference(x, y, w), atol=1e-8)
    assert out.shape == (6, layer.slot_dimension, 4)


def test_tensor_product_returns_a_result_the_caller_owns(rng):
    from test_spconv_kernel import owned_results

    layer = FullyConnectedTensorProduct(l_max=1, channels=4)
    x, y, w = layer.random_inputs(batch=6, rng=3)
    out = owned_results(lambda: layer(x, y, w))
    np.testing.assert_allclose(out, layer.reference(x, y, w), atol=1e-8)


def test_tensor_product_metadata(rng):
    layer = FullyConnectedTensorProduct(l_max=2, channels=8)
    assert layer.lines_of_code == 1
    assert layer.group_size >= 1
    assert layer.slot_dimension == 9
    x, y, w = layer.random_inputs(batch=4, rng=0)
    layer(x, y, w)
    assert layer.modeled_ms is not None and layer.modeled_ms > 0
    assert layer.estimate_ms(batch=16) > 0


def test_tensor_product_batch_mismatch(rng):
    layer = FullyConnectedTensorProduct(l_max=1, channels=4)
    x, y, w = layer.random_inputs(batch=4, rng=0)
    with pytest.raises(Exception):
        layer(x, y[:2], w)


def test_tensor_product_group_size_override():
    layer = FullyConnectedTensorProduct(l_max=1, channels=4, group_size=3)
    assert layer.group_size == 3


def test_cg_grouping_covers_all_entries():
    layer = FullyConnectedTensorProduct(l_max=2, channels=4)
    cg = fully_connected_cg_tensor(2)
    assert np.count_nonzero(layer._grouped["CGV"]) == cg.nnz


# -- extra kernels --------------------------------------------------------------------
def test_spmv(rng, medium_sparse_matrix):
    x = rng.standard_normal(96)
    np.testing.assert_allclose(spmv(medium_sparse_matrix, x), medium_sparse_matrix @ x, atol=1e-8)


def test_coo_elementwise_multiply(rng):
    values = (rng.random(20) < 0.4) * rng.standard_normal(20)
    dense = rng.standard_normal(20)
    out = coo_elementwise_multiply(COO.from_dense(values), dense)
    np.testing.assert_allclose(out, values * dense, atol=1e-10)


def test_coo_elementwise_multiply_requires_rank_one(rng):
    with pytest.raises(ValueError):
        coo_elementwise_multiply(COO.from_dense(np.eye(3)), np.zeros((3, 3)))


def test_sddmm(rng):
    sampling = COO.from_dense((rng.random((12, 9)) < 0.2) * 1.0)
    left = rng.standard_normal((12, 5))
    right = rng.standard_normal((5, 9))
    result = sddmm(sampling, left, right)
    np.testing.assert_allclose(
        result.to_dense(), sampling.to_dense() * (left @ right), atol=1e-9
    )


def test_sddmm_requires_matrix_pattern(rng):
    with pytest.raises(ValueError):
        sddmm(COO.from_dense(np.ones(4)), np.zeros((4, 2)), np.zeros((2, 4)))
