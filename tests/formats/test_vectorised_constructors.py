"""The vectorised constructors against the code they replaced.

``GroupCOO.from_csr``, ``BlockGroupCOO.from_dense`` and ``ELL.from_dense``
place their entries through :func:`repro.utils.arrays.padded_slots`, and every
dense → format constructor (and the tuner's profile) reads the structure of a
matrix through :func:`repro.utils.arrays.nonzero_entries`.  The per-row loops
and the ``np.nonzero`` scans they replaced are kept here as the reference, and
every stored array must come out byte-identical — same dtype, shape and bits.
"""

import numpy as np
import pytest

from repro.formats import BCSR, COO, CSR, ELL, BlockCOO, BlockGroupCOO, GroupCOO
from repro.formats.blocking import dense_to_blocks, nonzero_blocks
from repro.formats.csr import _rows_to_indptr
from repro.tuner.profile import _matrix_coords
from repro.utils.arrays import as_value_array, padded_slots


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
    return as_value_array(values), columns


# ---------------------------------------------------------------------------
# The ``np.nonzero`` scans (as committed before the flat mask pass)
# ---------------------------------------------------------------------------
def scan_csr(dense):
    rows, cols = np.nonzero(dense)
    return CSR(dense.shape, _rows_to_indptr(rows, dense.shape[0]), cols, dense[rows, cols])


def scan_coo(dense):
    coords = np.nonzero(dense)
    return COO(dense.shape, dense[coords], coords)


def scan_ell(dense):
    n_rows, _ = dense.shape
    occupancy = np.count_nonzero(dense, axis=1)
    width = int(occupancy.max()) if n_rows else 0
    value_dtype = dense.dtype if dense.dtype.kind in "fc" else np.float64
    values = np.zeros((n_rows, width), dtype=value_dtype)
    columns = np.zeros((n_rows, width), dtype=np.int64)
    rows, cols = np.nonzero(dense)
    slots = padded_slots(occupancy, np.ones(n_rows, dtype=np.int64), width)
    values.reshape(-1)[slots] = dense[rows, cols]
    columns.reshape(-1)[slots] = cols
    return ELL(dense.shape, values, columns, occupancy)


def scan_blocks(dense, block_shape):
    blocks = dense_to_blocks(dense, block_shape)
    block_rows, block_cols = np.nonzero(np.any(blocks != 0, axis=(2, 3)))
    return block_rows, block_cols, blocks[block_rows, block_cols]


def scan_blockcoo(dense, block_shape):
    return BlockCOO(dense.shape, block_shape, *scan_blocks(dense, block_shape))


def scan_bcsr(dense, block_shape):
    rows, cols, blocks = scan_blocks(dense, block_shape)
    order = np.lexsort((cols, rows))
    rows, cols, blocks = rows[order], cols[order], blocks[order]
    indptr = _rows_to_indptr(rows, dense.shape[0] // block_shape[0])
    return BCSR(dense.shape, block_shape, indptr, cols, blocks)


def scan_blockgroupcoo(dense, block_shape, group_size):
    rows, cols, blocks = scan_blocks(dense, block_shape)
    occupancy = np.bincount(rows, minlength=dense.shape[0] // block_shape[0])
    groups = -(-occupancy // group_size)
    slots = padded_slots(occupancy, groups, group_size)
    col_arr = np.zeros(int(groups.sum()) * group_size, dtype=np.int64)
    val_arr = np.zeros((col_arr.size, *block_shape), dtype=blocks.dtype)
    col_arr[slots] = cols
    val_arr[slots] = blocks
    return BlockGroupCOO(
        dense.shape,
        block_shape,
        np.repeat(np.arange(occupancy.size, dtype=np.int64), groups),
        col_arr.reshape(-1, group_size),
        val_arr.reshape(-1, group_size, *block_shape),
        nnz=int(np.count_nonzero(dense)),
    )


def assert_identical(actual, expected):
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def assert_same_format(actual, expected, dense):
    assert type(actual) is type(expected) and actual.shape == expected.shape
    stored, oracle = actual.tensors("A"), expected.tensors("A")
    assert stored.keys() == oracle.keys()
    for name in oracle:
        assert_identical(stored[name], oracle[name])
    if isinstance(expected, ELL):
        assert_identical(actual.occupancy, expected.occupancy)
    assert actual.nnz == expected.nnz == np.count_nonzero(dense)


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
    "no columns": lambda rng: np.zeros((4, 0), dtype=bool),
    "one element": lambda rng: np.ones((1, 1), dtype=bool),
}
DTYPES = [np.float32, np.float64, np.complex128, np.int64, np.bool_]


def matrix(name, dtype, rng):
    """The mask's pattern with random values; a float matrix also stores a NaN
    (nonzero) in its first entry and a -0.0 (zero) in its last empty slot."""
    mask = MASKS[name](rng)
    values = rng.standard_normal(mask.shape) + (1j if dtype == np.complex128 else 0)
    if dtype == np.int64:
        values = np.where(values.real < 0, -1, 1) * (1 + 9 * np.abs(values.real))
    dense = np.where(mask, values, 0).astype(dtype)
    if dense.dtype.kind in "fc" and mask.any() and not mask.all():
        dense.reshape(-1)[np.flatnonzero(mask)[0]] = np.nan
        dense.reshape(-1)[np.flatnonzero(~mask)[-1]] = -0.0
    return dense


def read_only(dense):
    dense = dense.copy()
    dense.flags.writeable = False
    return dense


def strided(dense):
    host = np.zeros((2 * dense.shape[0], 3 * dense.shape[1]), dtype=dense.dtype)
    host[::2, ::3] = dense
    return host[::2, ::3]


#: The same values in every memory layout a caller can hand in.
LAYOUTS = {
    "C": lambda dense: dense,
    "Fortran": np.asfortranarray,
    "strided view": strided,
    "transposed view": lambda dense: np.ascontiguousarray(dense.T).T,
    "read-only": read_only,
}


def block_of(shape):
    """The largest of 4, 2, 1 dividing each axis."""
    return tuple(next(b for b in (4, 2, 1) if extent % b == 0) for extent in shape)


# ---------------------------------------------------------------------------
# The flat mask pass == the ``np.nonzero`` scan, byte for byte
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("name", MASKS)
def test_every_dense_constructor_equals_the_nonzero_scan(name, layout, dtype, rng):
    dense = LAYOUTS[layout](matrix(name, dtype, rng))
    block = block_of(dense.shape)
    pairs = [
        (CSR.from_dense(dense), scan_csr(dense)),
        (COO.from_dense(dense), scan_coo(dense)),
        (GroupCOO.from_dense(dense, group_size=2), GroupCOO.from_csr(scan_csr(dense), 2)),
        (ELL.from_dense(dense), scan_ell(dense)),
        (BlockCOO.from_dense(dense, block), scan_blockcoo(dense, block)),
        (BCSR.from_dense(dense, block), scan_bcsr(dense, block)),
        (BlockGroupCOO.from_dense(dense, block, 2), scan_blockgroupcoo(dense, block, 2)),
    ]
    for actual, expected in pairs:
        assert_same_format(actual, expected, dense)
    shape, rows, cols = _matrix_coords(dense)
    assert shape == dense.shape
    for got, want in zip((rows, cols), np.nonzero(dense)):
        assert_identical(got, want)


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
def test_rank3_coo_equals_the_nonzero_scan(dtype, layout, rng):
    dense = matrix("uniform", dtype, rng).reshape(4, 8, 24)  # NaN and -0.0 included
    dense[2] = 0  # and an all-zero slice
    dense = dense[:, ::2, ::3] if layout == "strided view" else LAYOUTS[layout](dense)
    assert_same_format(COO.from_dense(dense), scan_coo(dense), dense)


# ---------------------------------------------------------------------------
# The padded-row constructors == the loops
# ---------------------------------------------------------------------------
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
@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("name", MASKS)
def test_groupcoo_from_dense_is_the_two_hop_build_through_csr(name, layout, dtype, rng):
    """Straight from the nonzeros, the arrays (and dtypes) of the build that
    went dense -> CSR -> GroupCOO, at the chosen and at forced group sizes."""
    dense = LAYOUTS[layout](matrix(name, dtype, rng))
    for group_size in (None, 1, 2, 3):
        fmt = GroupCOO.from_dense(dense, group_size=group_size)
        assert_same_format(fmt, GroupCOO.from_csr(CSR.from_dense(dense), group_size), dense)


@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
@pytest.mark.parametrize("name", [name for name in MASKS if name != "no rows"])
def test_blockgroupcoo_from_dense_equals_the_row_loop(name, dtype, rng):
    dense = matrix(name, dtype, rng)
    block = block_of(dense.shape)
    block_rows, block_cols, blocks = nonzero_blocks(dense, block)
    occupancy = np.bincount(block_rows, minlength=dense.shape[0] // block[0])
    for group_size in (None, 1, 2, int(occupancy.max()) + 3):
        fmt = BlockGroupCOO.from_dense(dense, block, group_size=group_size)
        rows, columns, values = loop_groups(
            occupancy.size, occupancy, block_cols, blocks, fmt.group_size, block
        )
        assert_identical(fmt.group_rows, rows)
        assert_identical(fmt.block_cols, columns)
        assert_identical(fmt.values, as_value_array(values))
        assert fmt.nnz == np.count_nonzero(dense)
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
