"""Tests for block extraction plus property-based format roundtrips."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.formats import BCSR, BlockCOO, BlockGroupCOO, COO, CSR, ELL, GroupCOO
from repro.formats.blocking import block_occupancy, blocks_to_dense, dense_to_blocks, nonzero_blocks

# Declared in requirements-dev.txt; a bare machine skips this module instead of
# stopping ``pytest -x`` at collection.
hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, settings = hypothesis.given, hypothesis.settings


def test_dense_to_blocks_roundtrip(block_sparse_matrix):
    blocks = dense_to_blocks(block_sparse_matrix, (8, 8))
    assert blocks.shape == (8, 8, 8, 8)
    np.testing.assert_allclose(blocks_to_dense(blocks), block_sparse_matrix)


def test_dense_to_blocks_requires_divisible_shape():
    with pytest.raises(ShapeError):
        dense_to_blocks(np.zeros((10, 8)), (4, 4))
    with pytest.raises(ShapeError):
        dense_to_blocks(np.zeros((8,)), (4, 4))
    with pytest.raises(ShapeError):
        dense_to_blocks(np.zeros((8, 8)), (0, 4))


def test_nonzero_blocks_and_occupancy(block_sparse_matrix):
    rows, cols, blocks = nonzero_blocks(block_sparse_matrix, (8, 8))
    assert blocks.shape[1:] == (8, 8)
    assert len(rows) == len(cols) == len(blocks)
    occupancy = block_occupancy(block_sparse_matrix, (8, 8))
    assert occupancy.sum() == len(rows)


@st.composite
def random_dense_matrix(draw):
    rows = draw(st.integers(min_value=1, max_value=12))
    cols = draw(st.integers(min_value=1, max_value=12))
    density = draw(st.floats(min_value=0.0, max_value=1.0))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((rows, cols))
    values[values == 0] = 1.0
    return np.where(rng.random((rows, cols)) < density, values, 0.0)


@settings(max_examples=40, deadline=None)
@given(random_dense_matrix())
def test_flat_formats_roundtrip_property(dense):
    for fmt_cls in (COO, CSR, ELL):
        fmt = fmt_cls.from_dense(dense)
        np.testing.assert_allclose(fmt.to_dense(), dense, atol=1e-12)
        assert fmt.nnz == np.count_nonzero(dense)


@settings(max_examples=40, deadline=None)
@given(random_dense_matrix(), st.integers(min_value=1, max_value=6))
def test_groupcoo_roundtrip_property(dense, group_size):
    fmt = GroupCOO.from_dense(dense, group_size=group_size)
    np.testing.assert_allclose(fmt.to_dense(), dense, atol=1e-12)
    assert fmt.value_count() % group_size == 0


@st.composite
def random_block_matrix(draw):
    grid = draw(st.integers(min_value=1, max_value=4))
    block = draw(st.sampled_from([2, 4]))
    density = draw(st.floats(min_value=0.0, max_value=1.0))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    size = grid * block
    dense = np.zeros((size, size))
    for i in range(grid):
        for j in range(grid):
            if rng.random() < density:
                values = rng.standard_normal((block, block))
                values[values == 0] = 1.0
                dense[i * block : (i + 1) * block, j * block : (j + 1) * block] = values
    return dense, (block, block)


@settings(max_examples=40, deadline=None)
@given(random_block_matrix(), st.integers(min_value=1, max_value=4))
def test_block_formats_roundtrip_property(matrix_and_block, group_size):
    dense, block_shape = matrix_and_block
    for fmt in (
        BlockCOO.from_dense(dense, block_shape),
        BCSR.from_dense(dense, block_shape),
        BlockGroupCOO.from_dense(dense, block_shape, group_size=group_size),
    ):
        np.testing.assert_allclose(fmt.to_dense(), dense, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(random_dense_matrix())
def test_format_memory_accounting_property(dense):
    """Stored value slots never undercount the actual nonzeros."""
    for fmt_cls in (COO, CSR, ELL, GroupCOO):
        fmt = fmt_cls.from_dense(dense)
        assert fmt.value_count() >= fmt.nnz
        assert fmt.memory_bytes() >= fmt.nnz * 4
