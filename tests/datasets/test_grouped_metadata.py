"""Grouped conv / tensor-product metadata against the per-group loops it
replaced, and the memoized Clebsch–Gordan blocks."""

from __future__ import annotations

import importlib

import numpy as np
import pytest

from repro.datasets import KernelMap, build_kernel_map, generate_scene, voxelize
from repro.formats.group_size import select_group_size
from repro.kernels import FullyConnectedTensorProduct

cg_module = importlib.import_module("repro.datasets.clebsch_gordan")

GROUP_SIZES = [None, 1, 3, 4, 16]


def grouped_by_loop(segments, columns, dtypes, group_size):
    """The per-group Python loop: pad each segment to whole groups, then stack.

    ``segments`` lists ``(key, [array per column])`` in key order; empty
    segments own no group.
    """
    rows = {name: [] for name in columns}
    keys = []
    for key, arrays in segments:
        count = len(arrays[0])
        if count == 0:
            continue
        groups = -(-count // group_size)
        for name, values, dtype in zip(columns, arrays, dtypes):
            padded = np.zeros(groups * group_size, dtype=dtype)
            padded[:count] = values
            rows[name] += [padded[g * group_size : (g + 1) * group_size] for g in range(groups)]
        keys += [key] * groups
    out = {
        name: np.stack(rows[name]) if keys else np.zeros((0, group_size), dtype=dtype)
        for name, dtype in zip(columns, dtypes)
    }
    return out, np.asarray(keys, dtype=np.int64)


def kernel_map_by_loop(kernel_map, group_size):
    if group_size is None:
        group_size = select_group_size(kernel_map.occupancy())
    segments = [
        (offset, [pairs[:, 0], pairs[:, 1], np.ones(len(pairs))])
        for offset, pairs in enumerate(kernel_map.pairs)
    ]
    out, keys = grouped_by_loop(
        segments, ["MAPX", "MAPY", "MAPV"], [np.int64, np.int64, np.float32], group_size
    )
    return {**out, "MAPZ": keys}


def tensor_product_by_loop(cg, group_size):
    coo = cg.to_coo_arrays("CG")
    order = np.argsort(coo["CGL"], kind="stable")
    paths = coo["CGL"][order]
    occupancy = np.bincount(paths, minlength=cg.num_paths)
    if group_size is None:
        group_size = select_group_size(occupancy)
    segments = [
        (path, [coo[key][order][paths == path] for key in ("CGI", "CGJ", "CGK", "CGV")])
        for path in range(cg.num_paths)
    ]
    out, keys = grouped_by_loop(
        segments,
        ["CGI", "CGJ", "CGK", "CGV"],
        [np.int64, np.int64, np.int64, np.float64],
        max(1, group_size),
    )
    return {**out, "CGL": keys}


def assert_same_arrays(actual, expected):
    assert actual.keys() == expected.keys()
    for name, want in expected.items():
        got = actual[name]
        assert (got.dtype, got.shape) == (want.dtype, want.shape), name
        assert got.tobytes() == want.tobytes(), name


def small_map(pairs):
    return KernelMap(num_voxels=6, offsets=np.zeros((len(pairs), 3), np.int64), pairs=pairs)


KERNEL_MAPS = {
    "scene": build_kernel_map(voxelize(generate_scene("pantry", max_points=1500, rng=7), 0.1)),
    "empty-offset": small_map(
        [np.array([[0, 1], [2, 3], [5, 5]]), np.zeros((0, 2), np.int64), np.array([[4, 0]])]
    ),
    "all-empty": small_map([np.zeros((0, 2), np.int64)] * 3),
}


@pytest.mark.parametrize("group_size", GROUP_SIZES)
@pytest.mark.parametrize("name", sorted(KERNEL_MAPS))
def test_kernel_map_grouping_matches_the_loop(name, group_size):
    kernel_map = KERNEL_MAPS[name]
    assert_same_arrays(
        kernel_map.to_grouped_arrays(group_size), kernel_map_by_loop(kernel_map, group_size)
    )


@pytest.mark.parametrize("group_size", GROUP_SIZES)
@pytest.mark.parametrize("l_max", [0, 1, 2, 3])
def test_tensor_product_grouping_matches_the_loop(l_max, group_size):
    product = FullyConnectedTensorProduct(l_max, channels=2, group_size=group_size)
    assert_same_arrays(product._grouped, tensor_product_by_loop(product.cg, group_size))


def test_clebsch_gordan_blocks_are_handed_out_as_copies():
    before = cg_module.fully_connected_cg_tensor(2).dense
    block = cg_module.real_clebsch_gordan_block(1, 1, 2)
    kept = block.copy()
    block[...] = 7.0
    assert cg_module.real_clebsch_gordan_block(1, 1, 2).tobytes() == kept.tobytes()
    assert cg_module.fully_connected_cg_tensor(2).dense.tobytes() == before.tobytes()
