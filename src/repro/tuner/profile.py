"""Sparsity profiling: the tuner's view of an operand.

The tuner never looks at an operand directly — it looks at a
:class:`SparsityProfile`, a compact structural summary extracted once per
operand (or once per profile *bucket* in the serving runtime):

* global statistics — shape, nnz, density;
* the row-occupancy distribution (mean / max / coefficient of variation and
  a fixed-quantile histogram), from which the tuner's rule reads ELL's
  padding and GroupCOO's group size;
* a *block-alignment score* per candidate block shape: the fill fraction of
  the nonzero blocks, ``nnz / (num_nonzero_blocks * bM * bK)``.  Perfectly
  block-structured data scores 1.0; unstructured data scores roughly its
  own density, so the score separates the two regimes sharply;
* the Section 4.2 group-size estimate ``g* = sqrt(S / n)`` (via
  :func:`repro.formats.group_size.optimal_group_size`).

All row-level statistics are computed from the *multiset* of row
occupancies, so they are invariant under row permutation — the property
the rule's unstructured clauses rely on (and that
``tests/tuner/test_profile.py`` checks).  Block scores are intentionally
**not** permutation-invariant: permuting rows destroys block structure,
and the profile must notice.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import FormatError
from repro.formats.base import SparseFormat
from repro.formats.group_size import optimal_group_size
from repro.utils.arrays import nonzero_entries, round_to_power_of_two

#: Block shapes the profiler scores (when they divide the matrix shape).
CANDIDATE_BLOCK_SHAPES: tuple[tuple[int, int], ...] = ((4, 4), (8, 8), (16, 16), (32, 32))

#: Quantiles of the row-occupancy distribution stored in the profile.
_HISTOGRAM_QUANTILES: tuple[float, ...] = (0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0)


@dataclass(frozen=True)
class BlockProfile:
    """Block-level statistics of one candidate block shape.

    Attributes
    ----------
    fill:
        Fraction of the stored block volume that is nonzero —
        ``nnz / (num_blocks * bM * bK)``.  1.0 for perfectly
        block-structured data, ≈ density for unstructured data.
    num_blocks:
        Number of blocks containing at least one nonzero.
    nonempty_rows:
        Number of block rows containing at least one nonzero block.
    row_max:
        Maximum nonzero blocks in any block row.
    g_star:
        Section 4.2 group-size estimate over the *block*-row occupancy
        (feeds BlockGroupCOO candidate enumeration).
    occupancy:
        Nonzero blocks per block row, from which the tuner's rule picks the
        BlockGroupCOO group size (Section 4.2).
    """

    fill: float
    num_blocks: int
    nonempty_rows: int
    row_max: int
    g_star: float
    occupancy: np.ndarray = field(compare=False, repr=False)


@dataclass(frozen=True)
class SparsityProfile:
    """Structural summary of one sparse operand.

    Attributes
    ----------
    shape:
        Logical dense shape ``(rows, cols)``.
    nnz:
        Number of structurally nonzero entries.
    density:
        ``nnz / (rows * cols)``.
    nonempty_rows:
        Number of rows holding at least one nonzero.
    row_mean / row_max / row_cv:
        Mean, maximum, and coefficient of variation (std / mean) of the
        per-row nonzero counts over **nonempty** rows.  All three are
        invariant under row permutation.
    row_quantiles:
        Fixed quantiles (:data:`_HISTOGRAM_QUANTILES`) of the nonempty-row
        occupancy distribution — a permutation-invariant histogram.
    g_star:
        The Section 4.2 closed-form group-size estimate ``sqrt(S / n)``.
    blocks:
        ``{(bM, bK): BlockProfile}`` for every candidate block shape
        dividing the matrix.
    occupancy:
        The full per-row nonzero counts (row order preserved).  Excluded
        from equality/hashing; the rule's Section 4.2 group size reads it.
    """

    shape: tuple[int, int]
    nnz: int
    density: float
    nonempty_rows: int
    row_mean: float
    row_max: int
    row_cv: float
    row_quantiles: tuple[float, ...]
    g_star: float
    blocks: dict[tuple[int, int], BlockProfile] = field(compare=False)
    occupancy: np.ndarray = field(compare=False, repr=False)

    @property
    def block_scores(self) -> dict[tuple[int, int], float]:
        """``{block_shape: fill}`` — the alignment score per block shape."""
        return {shape: stats.fill for shape, stats in self.blocks.items()}

    # -- derived views -------------------------------------------------------
    def unstructured_key(self) -> tuple:
        """The permutation-invariant slice of the profile.

        Everything derived from the row-occupancy *multiset* plus the
        global statistics — equal for any row permutation of the same
        matrix.  Used by the property tests.
        """
        return (
            self.shape,
            self.nnz,
            round(self.density, 12),
            self.nonempty_rows,
            round(self.row_mean, 9),
            self.row_max,
            round(self.row_cv, 9),
            tuple(round(q, 9) for q in self.row_quantiles),
            round(self.g_star, 9),
        )

    def best_block_shape(self, min_fill: float = 0.25) -> tuple[int, int] | None:
        """The candidate block shape with the highest alignment payoff.

        Blocks are ranked by ``fill^2 * block_volume`` — a large block
        amortises more per-block metadata, but only when it is actually
        filled — and shapes below ``min_fill`` are rejected.  Returns
        ``None`` when no shape qualifies (unstructured data).
        """
        best: tuple[int, int] | None = None
        best_rank = 0.0
        for block_shape, fill in self.block_scores.items():
            if fill < min_fill:
                continue
            rank = fill * fill * block_shape[0] * block_shape[1]
            if rank > best_rank:
                best_rank = rank
                best = block_shape
        return best

    def bucket(self) -> tuple:
        """A coarse, hashable key grouping structurally-similar operands.

        The decision cache is keyed by this bucket, so requests with the
        *same shape but a different sparsity regime* get their own format
        decision, while near-identical requests share one.  Compiled plans
        key on the format chosen, not on the bucket.

        The bucket quantises density (half-decades), row skew (cv rounded
        to halves), the group-size estimate (nearest power of two), and
        the best block shape.
        """
        density_bucket = (
            int(round(2 * np.log10(self.density))) if self.density > 0 else -99
        )
        cv_bucket = round(2 * self.row_cv) / 2
        g_bucket = round_to_power_of_two(max(self.g_star, 1.0))
        return (
            self.shape,
            density_bucket,
            cv_bucket,
            g_bucket,
            self.best_block_shape(),
        )


# ---------------------------------------------------------------------------
# Coordinate extraction (every format, without densifying)
# ---------------------------------------------------------------------------
def _matrix_coords(operand) -> tuple[tuple[int, int], np.ndarray, np.ndarray]:
    """``(shape, rows, cols)`` of the structural nonzeros of a 2-D operand.

    Works on dense arrays and on every concrete format in
    :mod:`repro.formats` in O(nnz) without materialising a dense array.
    Padding slots (explicit zeros in padded formats) are excluded.
    """
    from repro.formats.bcsr import BCSR
    from repro.formats.blockcoo import BlockCOO
    from repro.formats.blockgroupcoo import BlockGroupCOO
    from repro.formats.coo import COO
    from repro.formats.csr import CSR
    from repro.formats.ell import ELL
    from repro.formats.groupcoo import GroupCOO

    if isinstance(operand, COO):
        if len(operand.shape) != 2:
            raise FormatError(f"the tuner profiles matrices; got shape {operand.shape}")
        keep = operand.values != 0
        return operand.shape, operand.coords[0][keep], operand.coords[1][keep]
    if isinstance(operand, CSR):
        rows = np.repeat(np.arange(operand.shape[0]), operand.row_occupancy())
        keep = operand.data != 0
        return operand.shape, rows[keep], operand.indices[keep]
    if isinstance(operand, ELL):
        width = operand.columns.shape[1]
        mask = np.arange(width) < np.asarray(operand.occupancy)[:, None]
        (rows, within), _ = nonzero_entries(mask)
        return operand.shape, rows, operand.columns[rows, within]
    if isinstance(operand, GroupCOO):
        mask = operand.values != 0
        group_of_slot = np.broadcast_to(
            operand.group_rows[:, None], operand.values.shape
        )
        return operand.shape, group_of_slot[mask], operand.columns[mask]
    if isinstance(operand, (BlockCOO, BCSR, BlockGroupCOO)):
        # Expand block coordinates to element coordinates of the nonzeros.
        block_rows_size, block_cols_size = operand.block_shape
        if isinstance(operand, BlockCOO):
            b_rows, b_cols, blocks = operand.block_rows, operand.block_cols, operand.values
        elif isinstance(operand, BCSR):
            counts = np.diff(operand.indptr)
            b_rows = np.repeat(np.arange(counts.size), counts)
            b_cols, blocks = operand.indices, operand.values
        else:
            b_rows = np.repeat(operand.group_rows, operand.group_size)
            b_cols = operand.block_cols.reshape(-1)
            blocks = operand.values.reshape(-1, block_rows_size, block_cols_size)
        (slot, local_r, local_c), _ = nonzero_entries(blocks)
        rows = b_rows[slot] * block_rows_size + local_r
        cols = b_cols[slot] * block_cols_size + local_c
        return operand.shape, rows, cols

    dense = np.asarray(operand)
    if dense.ndim != 2:
        raise FormatError(f"the tuner profiles matrices; got an array of shape {dense.shape}")
    (rows, cols), _ = nonzero_entries(dense)
    return dense.shape, rows, cols


# ---------------------------------------------------------------------------
# Profile construction
# ---------------------------------------------------------------------------
def profile_operand(operand, block_shapes=CANDIDATE_BLOCK_SHAPES) -> SparsityProfile:
    """Extract a :class:`SparsityProfile` from a dense array or sparse format.

    Parameters
    ----------
    operand:
        A 2-D dense :class:`numpy.ndarray` or any concrete
        :class:`~repro.formats.base.SparseFormat` (including the
        variable-length CSR/BCSR — they can be profiled even though they
        cannot execute as indirect Einsums).
    block_shapes:
        Candidate block shapes to score; shapes not dividing the matrix
        shape are skipped.

    Returns
    -------
    SparsityProfile
        The structural summary consumed by the tuner's rule, candidate
        enumeration, and the decision cache.
    """
    if isinstance(operand, SparseFormat) and operand.format_name == "StackedSparse":
        # Profile the shared pattern; values come from the base operand.
        operand = operand.base  # type: ignore[attr-defined]
    memo_key = tuple(block_shapes)
    if isinstance(operand, SparseFormat):
        # Formats are immutable, so the profile is a per-instance constant:
        # memoize it so a server re-profiling the same operand on every
        # request pays the O(nnz) extraction once.
        cached = getattr(operand, "_profile_memo", None)
        if cached is not None and cached[0] == memo_key:
            return cached[1]
    shape, rows, cols = _matrix_coords(operand)
    n_rows, n_cols = shape
    nnz = int(rows.size)
    total = n_rows * n_cols
    density = nnz / total if total else 0.0

    occupancy = np.bincount(rows, minlength=n_rows) if nnz else np.zeros(n_rows, dtype=np.int64)
    nonempty = occupancy[occupancy > 0]
    if nonempty.size:
        row_mean = float(nonempty.mean())
        row_max = int(nonempty.max())
        row_std = float(nonempty.std())
        row_cv = row_std / row_mean if row_mean else 0.0
        quantiles = tuple(
            float(q) for q in np.quantile(nonempty, _HISTOGRAM_QUANTILES)
        )
    else:
        row_mean, row_max, row_cv = 0.0, 0, 0.0
        quantiles = tuple(0.0 for _ in _HISTOGRAM_QUANTILES)

    blocks: dict[tuple[int, int], BlockProfile] = {}
    for block_shape in block_shapes:
        bm, bk = block_shape
        if n_rows % bm or n_cols % bk or not nnz:
            continue
        grid_cols = n_cols // bk
        # The distinct block ids: a sort and a neighbour-difference mask
        # (NumPy's hash-based ``np.unique`` takes 4-10x longer on these).
        block_ids = np.sort((rows // bm) * grid_cols + (cols // bk))
        first = np.empty(nnz, dtype=bool)
        first[0] = True
        np.not_equal(block_ids[1:], block_ids[:-1], out=first[1:])
        unique_blocks = block_ids[first]
        num_blocks = int(unique_blocks.size)
        block_occ = np.bincount(unique_blocks // grid_cols, minlength=n_rows // bm)
        nonempty_block_rows = block_occ[block_occ > 0]
        blocks[block_shape] = BlockProfile(
            fill=nnz / (num_blocks * bm * bk),
            num_blocks=num_blocks,
            nonempty_rows=int(nonempty_block_rows.size),
            row_max=int(nonempty_block_rows.max()) if nonempty_block_rows.size else 0,
            g_star=float(optimal_group_size(block_occ)),
            occupancy=block_occ,
        )

    profile = SparsityProfile(
        shape=(int(n_rows), int(n_cols)),
        nnz=nnz,
        density=density,
        nonempty_rows=int(nonempty.size),
        row_mean=row_mean,
        row_max=row_max,
        row_cv=row_cv,
        row_quantiles=quantiles,
        g_star=float(optimal_group_size(occupancy)),
        blocks=blocks,
        occupancy=occupancy.astype(np.int64),
    )
    if isinstance(operand, SparseFormat):
        operand._profile_memo = (memo_key, profile)
    return profile
