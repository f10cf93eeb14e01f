"""Compressed Sparse Row (CSR) format.

CSR is *not* a fixed-length format: iterating a row requires a loop whose
bound is ``indptr[m+1] - indptr[m]``, a data value, which indirect Einsums
cannot express (Section 4).  It is provided here because the baselines
(cuSPARSE-like and Sputnik-like SpMM) operate on CSR and because GroupCOO
construction starts from per-row occupancy counts that CSR makes explicit.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ShapeError
from repro.formats.base import SparseFormat
from repro.utils.arrays import as_index_array, as_value_array, nonzero_entries


def _rows_to_indptr(rows: np.ndarray, n_rows: int) -> np.ndarray:
    """CSR ``indptr`` from (sorted) row coordinates via one ``bincount``.

    Replaces the former ``np.add.at`` histogram: ``bincount`` computes the
    per-row counts in one vectorised pass instead of one scattered update
    per nonzero.
    """
    counts = np.bincount(rows, minlength=n_rows) if rows.size else np.zeros(n_rows, dtype=np.int64)
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr


class CSR(SparseFormat):
    """Classic CSR: ``indptr`` (n_rows + 1), ``indices`` (nnz), ``data`` (nnz)."""

    format_name = "CSR"
    fixed_length = False

    def __init__(
        self,
        shape: Sequence[int],
        indptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray,
    ):
        self._shape = tuple(int(d) for d in shape)
        if len(self._shape) != 2:
            raise ShapeError(f"CSR is a matrix format; got shape {self._shape}")
        self.indptr = as_index_array(indptr, name="CSR indptr")
        self.indices = as_index_array(indices, name="CSR indices")
        self.data = as_value_array(data, name="CSR data")
        n_rows = self._shape[0]
        if self.indptr.shape != (n_rows + 1,):
            raise ShapeError(
                f"indptr must have shape ({n_rows + 1},), got {self.indptr.shape}"
            )
        if self.indptr[0] != 0 or self.indptr[-1] != self.indices.shape[0]:
            raise ShapeError("indptr must start at 0 and end at nnz")
        if np.any(np.diff(self.indptr) < 0):
            raise ShapeError("indptr must be non-decreasing")
        if self.indices.shape != self.data.shape:
            raise ShapeError("indices and data must have the same length")
        if self.indices.size and (self.indices.min() < 0 or self.indices.max() >= self._shape[1]):
            raise ShapeError(f"column indices fall outside [0, {self._shape[1]})")

    # -- constructors ---------------------------------------------------------
    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "CSR":
        """Build CSR from a dense matrix, keeping only nonzeros (row-sorted)."""
        dense = np.asarray(dense)
        if dense.ndim != 2:
            raise ShapeError(f"CSR.from_dense expects a matrix, got shape {dense.shape}")
        (rows, cols), data = nonzero_entries(dense)
        indptr = _rows_to_indptr(rows, dense.shape[0])
        return cls(dense.shape, indptr, cols, data)

    @classmethod
    def from_coo(cls, coo) -> "CSR":
        """Convert a 2-D COO tensor (possibly unsorted) to CSR."""
        if len(coo.shape) != 2:
            raise ShapeError("CSR.from_coo expects a rank-2 COO tensor")
        order = np.lexsort((coo.coords[1], coo.coords[0]))
        rows = coo.coords[0][order]
        cols = coo.coords[1][order]
        data = coo.values[order]
        indptr = _rows_to_indptr(rows, coo.shape[0])
        return cls(coo.shape, indptr, cols, data)

    # -- SparseFormat interface --------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self._shape

    @property
    def nnz(self) -> int:
        return int(self.data.shape[0])

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self._shape, dtype=self.data.dtype)
        for row in range(self._shape[0]):
            start, end = self.indptr[row], self.indptr[row + 1]
            np.add.at(dense[row], self.indices[start:end], self.data[start:end])
        return dense

    def tensors(self, name: str) -> dict[str, np.ndarray]:
        return {
            f"{name}P": self.indptr,
            f"{name}K": self.indices,
            f"{name}V": self.data,
        }

    # -- runtime hooks ------------------------------------------------------------
    def with_values(self, values: np.ndarray) -> "CSR":
        """Same pointers and columns, new data (the stacking primitive)."""
        return CSR(self._shape, self.indptr, self.indices, values)

    def value_count(self) -> int:
        return self.nnz

    def index_count(self) -> int:
        return self.nnz + self._shape[0] + 1

    # -- helpers ----------------------------------------------------------------
    def row_occupancy(self) -> np.ndarray:
        """Number of nonzeros per row (``occ`` in Section 4.2)."""
        return np.diff(self.indptr)

    def to_coo(self):
        """Convert back to COO (row-sorted)."""
        from repro.formats.coo import COO

        rows = np.repeat(np.arange(self._shape[0]), self.row_occupancy())
        return COO(self._shape, self.data, (rows, self.indices))
