"""Array helpers shared by formats, kernels, and the compiler backend."""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError


def ceil_div(a: int, b: int) -> int:
    """Integer ceiling division ``ceil(a / b)`` for non-negative ``a``."""
    if b <= 0:
        raise ValueError(f"ceil_div requires a positive divisor, got {b}")
    return -(-int(a) // int(b))


def is_power_of_two(n: int) -> bool:
    """Return True if ``n`` is a positive power of two."""
    return n > 0 and (n & (n - 1)) == 0


def next_power_of_two(n: int) -> int:
    """Smallest power of two greater than or equal to ``n`` (n >= 1)."""
    if n < 1:
        raise ValueError(f"next_power_of_two requires n >= 1, got {n}")
    return 1 << (int(n) - 1).bit_length()


def prev_power_of_two(n: int) -> int:
    """Largest power of two less than or equal to ``n`` (n >= 1)."""
    if n < 1:
        raise ValueError(f"prev_power_of_two requires n >= 1, got {n}")
    return 1 << (int(n).bit_length() - 1)


def round_to_power_of_two(n: float) -> int:
    """Round a positive value to the nearest power of two.

    Ties (the geometric midpoint) round up.  Used by the group-size
    heuristic in Section 4.2 of the paper, which rounds ``g* = sqrt(S/n)``
    to nearby powers of two before picking the best by runtime.
    """
    if n <= 0:
        raise ValueError(f"round_to_power_of_two requires n > 0, got {n}")
    if n < 1:
        return 1
    lo = prev_power_of_two(int(n)) if n >= 1 else 1
    hi = lo * 2
    # Compare in log space so 1.5 rounds to 2 while 1.4 rounds to 1.
    return lo if n * n < lo * hi else hi


def padded_slots(occupancy: np.ndarray, groups: np.ndarray, group_size: int) -> np.ndarray:
    """Flat slot of every stored entry of a padded, row-grouped layout.

    The entries arrive sorted by row, ``occupancy[row]`` of them per row.
    Row ``row`` owns ``groups[row]`` consecutive groups of ``group_size``
    slots and its entries fill them in order, the tail left as padding:
    ``slot = group_start[row] * group_size + rank within row``.  One fancy
    store into a zeroed flat array then builds GroupCOO, BlockGroupCOO
    (rows of blocks) and ELL (one group of the maximum occupancy per row).
    """
    occupancy = np.asarray(occupancy, dtype=np.int64)
    groups = np.asarray(groups, dtype=np.int64)
    rows = np.repeat(np.arange(occupancy.size), occupancy)
    rank = np.arange(rows.size) - (np.cumsum(occupancy) - occupancy)[rows]
    return (np.cumsum(groups) - groups)[rows] * group_size + rank


def nonzero_entries(dense: np.ndarray) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """Row-major coordinates and values of the nonzeros of a dense array.

    The arrays of ``coords = np.nonzero(dense); dense[coords]`` — NaN is
    nonzero, ``-0.0`` is zero — from one flat pass: ``np.flatnonzero`` of the
    ``!= 0`` mask, then ``divmod`` (a matrix) or ``np.unravel_index`` (any
    other rank) for the coordinates.  ``np.nonzero`` walks a multi-index per
    element, 4–6 ns each even on a bool mask; this is the one structure scan
    of every dense → format constructor and of the tuner's profile.
    """
    dense = np.asarray(dense)
    if dense.ndim == 0:
        raise ShapeError("a structure scan needs at least one axis, got a scalar")
    flat = np.flatnonzero(dense != 0)
    if dense.ndim == 2:
        coords = divmod(flat, dense.shape[1])
    else:
        coords = np.unravel_index(flat, dense.shape)
    # ``np.take`` of flat positions would copy an array that is not C-ordered whole.
    return coords, np.take(dense, flat) if dense.flags.c_contiguous else dense[coords]


def as_index_array(values, name: str = "index") -> np.ndarray:
    """Coerce ``values`` to a contiguous int64 array, validating integrality."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "iu":
        if arr.dtype.kind == "f" and np.all(arr == np.round(arr)):
            arr = arr.astype(np.int64)
        else:
            raise ShapeError(f"{name} must contain integers, got dtype {arr.dtype}")
    return np.ascontiguousarray(arr, dtype=np.int64)


def as_value_array(values, dtype=None, name: str = "values") -> np.ndarray:
    """Coerce ``values`` to a contiguous floating-point array."""
    arr = np.asarray(values)
    if dtype is not None:
        arr = arr.astype(dtype)
    elif arr.dtype.kind not in "fc":
        arr = arr.astype(np.float64)
    if arr.dtype == np.float16:
        # float16 keeps the storage-size semantics of the paper's FP16 runs
        # but we accumulate in float32 elsewhere; nothing to do here.
        pass
    return np.ascontiguousarray(arr)
