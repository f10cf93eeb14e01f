"""The vectorised padded-row constructors against the loops they replaced.

``GroupCOO.from_csr``, ``BlockGroupCOO.from_dense`` and ``ELL.from_dense``
place their entries through :func:`repro.utils.arrays.padded_slots`; the
per-row loops they used to run are kept here as the reference, and every
stored array must come out byte-identical — same dtype, shape and bits.
"""

import numpy as np
import pytest

from repro.formats import CSR, ELL, BlockGroupCOO, GroupCOO
from repro.formats.blocking import nonzero_blocks
from repro.utils.arrays import padded_slots


# ---------------------------------------------------------------------------
# The loops (as committed before the vectorisation)
# ---------------------------------------------------------------------------
def loop_groups(shape, occupancy, columns, values, group_size, slot_shape=()):
    """Row by row: pad to whole groups, emit one ``(row, columns, values)`` each."""
    group_rows, column_groups, value_groups, start = [], [], [], 0
    for row in range(shape):
        occ = int(occupancy[row])
        if occ == 0:
            continue
        n_groups = -(-occ // group_size)
        padded_cols = np.zeros(n_groups * group_size, dtype=np.int64)
        padded_vals = np.zeros((n_groups * group_size, *slot_shape), dtype=values.dtype)
        padded_cols[:occ] = columns[start : start + occ]
        padded_vals[:occ] = values[start : start + occ]
        start += occ
        for g in range(n_groups):
            group_rows.append(row)
            column_groups.append(padded_cols[g * group_size : (g + 1) * group_size])
            value_groups.append(padded_vals[g * group_size : (g + 1) * group_size])
    if not group_rows:  # (the block loop forgot ``dtype`` here: float64 whatever came in)
        return (
            np.zeros((0,), dtype=np.int64),
            np.zeros((0, group_size), dtype=np.int64),
            np.zeros((0, group_size, *slot_shape), dtype=values.dtype),
        )
    return np.asarray(group_rows, dtype=np.int64), np.stack(column_groups), np.stack(value_groups)


def loop_ell(dense):
    occupancy = np.count_nonzero(dense, axis=1)
    width = int(occupancy.max()) if dense.shape[0] else 0
    values = np.zeros((dense.shape[0], width), dtype=dense.dtype)
    columns = np.zeros((dense.shape[0], width), dtype=np.int64)
    for row in range(dense.shape[0]):
        cols = np.nonzero(dense[row])[0]
        values[row, : cols.size] = dense[row, cols]
        columns[row, : cols.size] = cols
    return values, columns


def assert_identical(actual, expected):
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# The layer benchmark's sparsity structures, in miniature
# ---------------------------------------------------------------------------
def power_law(rng, size=48):
    occupancy = np.minimum(size, (rng.pareto(1.2, size) * 3).astype(int))  # empty rows too
    return rng.random((size, size)).argsort(axis=1).argsort(axis=1) < occupancy[:, None]


def tiles(rng, density, size=32, block=4):
    grid = size // block
    return np.kron(rng.random((grid, grid)) < density, np.ones((block, block), dtype=bool))


def special(rng):
    mask = np.zeros((12, 10), dtype=bool)
    mask[3] = True  # a full row
    mask[7, 4] = mask[9, 0] = mask[9, 9] = True  # beside near-empty ones
    return mask


MASKS = {
    "power-law": power_law,
    "uniform": lambda rng: rng.random((32, 24)) < 0.1,
    "tiles@0.1": lambda rng: tiles(rng, 0.1),
    "tiles@0.3": lambda rng: tiles(rng, 0.3),
    "a full row beside empty ones": special,
    "all-zero": lambda rng: np.zeros((8, 12), dtype=bool),
    "no rows": lambda rng: np.zeros((0, 4), dtype=bool),
}
DTYPES = [np.float32, np.float64, np.complex128]


def matrix(name, dtype, rng):
    mask = MASKS[name](rng)
    values = rng.standard_normal(mask.shape) + (1j if dtype == np.complex128 else 0)
    return np.where(mask, values, 0).astype(dtype)


@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
@pytest.mark.parametrize("name", MASKS)
def test_groupcoo_from_csr_equals_the_row_loop(name, dtype, rng):
    dense = matrix(name, dtype, rng)
    csr = CSR.from_dense(dense)
    occupancy = csr.row_occupancy()
    widest = int(occupancy.max()) if occupancy.size else 0
    for group_size in (None, 1, 2, 3, max(1, widest), widest + 5):
        fmt = GroupCOO.from_csr(csr, group_size=group_size)
        rows, columns, values = loop_groups(
            dense.shape[0], occupancy, csr.indices, csr.data, fmt.group_size
        )
        assert_identical(fmt.group_rows, rows)
        assert_identical(fmt.columns, columns)
        assert_identical(fmt.values, values)
        assert fmt.nnz == np.count_nonzero(dense)
        np.testing.assert_array_equal(fmt.to_dense(), dense)


@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
@pytest.mark.parametrize("name", [name for name in MASKS if name != "no rows"])
def test_blockgroupcoo_from_dense_equals_the_row_loop(name, dtype, rng):
    dense = matrix(name, dtype, rng)
    block = (4, 4) if dense.shape[1] % 4 == 0 else (4, 2)
    block_rows, block_cols, blocks = nonzero_blocks(dense, block)
    occupancy = np.bincount(block_rows, minlength=dense.shape[0] // block[0])
    for group_size in (None, 1, 2, int(occupancy.max()) + 3):
        fmt = BlockGroupCOO.from_dense(dense, block, group_size=group_size)
        rows, columns, values = loop_groups(
            occupancy.size, occupancy, block_cols, blocks, fmt.group_size, block
        )
        assert_identical(fmt.group_rows, rows)
        assert_identical(fmt.block_cols, columns)
        assert_identical(fmt.values, values)
        np.testing.assert_array_equal(fmt.to_dense(), dense)


@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
@pytest.mark.parametrize("name", MASKS)
def test_ell_from_dense_equals_the_row_loop(name, dtype, rng):
    dense = matrix(name, dtype, rng)
    fmt = ELL.from_dense(dense)
    values, columns = loop_ell(dense)
    assert_identical(fmt.values, values)
    assert_identical(fmt.columns, columns)
    np.testing.assert_array_equal(fmt.occupancy, np.count_nonzero(dense, axis=1))
    np.testing.assert_array_equal(fmt.to_dense(), dense)


def test_padded_slots_places_each_row_in_its_own_groups():
    occupancy = np.array([3, 0, 1, 4])
    groups = -(-occupancy // 2)  # 2, 0, 1, 2 groups of two slots
    slots = padded_slots(occupancy, groups, 2)
    assert slots.tolist() == [0, 1, 2, 4, 6, 7, 8, 9]  # slots 3 and 5 are padding
    # ELL: one group of the widest row per row, empty rows included.
    ell = padded_slots(occupancy, np.ones(4, dtype=int), 4)
    assert ell.tolist() == [0, 1, 2, 8, 12, 13, 14, 15]
    assert padded_slots(np.zeros(3, dtype=int), np.zeros(3, dtype=int), 2).size == 0
