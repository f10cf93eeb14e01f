"""Tests for the point-cloud sparse convolution application."""

import numpy as np
import pytest

from repro.datasets import build_kernel_map, generate_scene, voxelize
from repro.errors import ShapeError
from repro.kernels import SparseConv3d


@pytest.fixture(scope="module")
def small_kernel_map():
    points = generate_scene("pantry", max_points=1500, rng=7)
    voxels = voxelize(points, voxel_size=0.1)
    return build_kernel_map(voxels, kernel_size=3)


def test_sparse_conv_matches_reference(small_kernel_map, rng):
    conv = SparseConv3d(small_kernel_map, in_channels=8, out_channels=12, rng=0)
    features = rng.standard_normal((small_kernel_map.num_voxels, 8))
    out = conv(features)
    np.testing.assert_allclose(out, conv.reference(features), atol=1e-8)
    assert out.shape == (small_kernel_map.num_voxels, 12)


def owned_results(call):
    """Two calls' results: each writable, C-contiguous and the caller's own
    (the zero placeholder the layer binds is never what comes back)."""
    first, second = call(), call()
    for result in (first, second):
        assert result.flags.writeable and result.flags.c_contiguous and result.flags.owndata
    assert not np.shares_memory(first, second)
    kept = first.copy()
    second += 1.0  # the caller's to write: the first result does not move
    np.testing.assert_array_equal(first, kept)
    return first


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=lambda d: np.dtype(d).name)
def test_sparse_conv_returns_a_result_the_caller_owns(small_kernel_map, rng, dtype):
    conv = SparseConv3d(small_kernel_map, in_channels=8, out_channels=12, rng=0)
    features = rng.standard_normal((small_kernel_map.num_voxels, 8)).astype(dtype)
    out = owned_results(lambda: conv(features))
    assert out.dtype == np.result_type(dtype, conv.weight.dtype)
    np.testing.assert_allclose(out, conv.reference(features), atol=1e-4)
    assert conv.estimate_ms() > 0


def test_sparse_conv_modeled_cost_and_loc(small_kernel_map, rng):
    conv = SparseConv3d(small_kernel_map, in_channels=8, out_channels=8, rng=0)
    features = rng.standard_normal((small_kernel_map.num_voxels, 8))
    conv(features)
    assert conv.modeled_ms is not None and conv.modeled_ms > 0
    assert conv.lines_of_code == 1
    assert conv.compiled.is_fused
    assert conv.estimate_ms() > 0


def test_sparse_conv_rejects_bad_feature_shape(small_kernel_map):
    conv = SparseConv3d(small_kernel_map, in_channels=8, out_channels=8)
    with pytest.raises(ShapeError):
        conv(np.zeros((small_kernel_map.num_voxels, 5)))


def test_sparse_conv_group_size_override(small_kernel_map, rng):
    conv = SparseConv3d(small_kernel_map, in_channels=4, out_channels=4, group_size=8, rng=1)
    assert conv.group_size == 8
    features = rng.standard_normal((small_kernel_map.num_voxels, 4))
    np.testing.assert_allclose(conv(features), conv.reference(features), atol=1e-8)


def test_identity_kernel_map_behaves_like_linear_layer(rng):
    # A kernel map with only the centre offset is a per-voxel linear layer.
    voxels = np.stack(np.meshgrid(np.arange(3), np.arange(3), np.arange(3)), axis=-1).reshape(-1, 3)
    km = build_kernel_map(voxels, kernel_size=1)
    conv = SparseConv3d(km, in_channels=5, out_channels=6, rng=2)
    features = rng.standard_normal((km.num_voxels, 5))
    np.testing.assert_allclose(conv(features), features @ conv.weight[0], atol=1e-8)
