"""ELLPACK (ELL) format: every row padded to the same number of nonzeros."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.einsum.ast import IndexVar, TensorAccess
from repro.core.einsum.rewriting import IndexSubstitution, OperandRewrite
from repro.errors import FormatError, ShapeError
from repro.formats.base import SparseFormat
from repro.utils.arrays import as_index_array, as_value_array, nonzero_entries, padded_slots


class ELL(SparseFormat):
    """ELL format: ``values``/``columns`` of shape ``(n_rows, width)``.

    ELL avoids storing row coordinates entirely (the row is the position in
    the array), so SpMM in ELL needs no scatter:
    ``C[m,n] += AV[m,q] * B[AK[m,q],n]``.  The price is padding every row to
    the maximum occupancy, which GroupCOO exists to mitigate (Section 4.1).
    """

    format_name = "ELL"
    fixed_length = True

    def __init__(
        self,
        shape: Sequence[int],
        values: np.ndarray,
        columns: np.ndarray,
        occupancy: np.ndarray | None = None,
    ):
        self._shape = tuple(int(d) for d in shape)
        if len(self._shape) != 2:
            raise ShapeError(f"ELL is a matrix format; got shape {self._shape}")
        self.values = as_value_array(values, name="ELL values")
        self.columns = as_index_array(columns, name="ELL columns")
        if self.values.ndim != 2 or self.values.shape[0] != self._shape[0]:
            raise ShapeError(
                f"ELL values must have shape (n_rows, width); got {self.values.shape}"
            )
        if self.columns.shape != self.values.shape:
            raise ShapeError("ELL columns must have the same shape as values")
        if occupancy is None:
            occupancy = np.count_nonzero(self.values, axis=1)
        self.occupancy = as_index_array(occupancy, name="ELL occupancy")

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "ELL":
        """Build ELL from a dense matrix, padding rows to the max occupancy."""
        dense = np.asarray(dense)
        if dense.ndim != 2:
            raise ShapeError(f"ELL.from_dense expects a matrix, got shape {dense.shape}")
        n_rows, _ = dense.shape
        (rows, cols), entries = nonzero_entries(dense)
        occupancy = np.bincount(rows, minlength=n_rows)
        width = int(occupancy.max()) if n_rows else 0
        value_dtype = dense.dtype if dense.dtype.kind in "fc" else np.float64
        values = np.zeros((n_rows, width), dtype=value_dtype)
        columns = np.zeros((n_rows, width), dtype=np.int64)
        # One group of ``width`` slots per row, empty rows included.
        slots = padded_slots(occupancy, np.ones(n_rows, dtype=np.int64), width)
        values.reshape(-1)[slots] = entries
        columns.reshape(-1)[slots] = cols
        return cls(dense.shape, values, columns, occupancy)

    # -- SparseFormat interface ---------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self._shape

    @property
    def nnz(self) -> int:
        return int(self.occupancy.sum())

    @property
    def width(self) -> int:
        """Padded row length (maximum occupancy)."""
        return int(self.values.shape[1])

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self._shape, dtype=self.values.dtype)
        for row in range(self._shape[0]):
            occ = int(self.occupancy[row])
            np.add.at(dense[row], self.columns[row, :occ], self.values[row, :occ])
        return dense

    def tensors(self, name: str) -> dict[str, np.ndarray]:
        return {f"{name}V": self.values, f"{name}K": self.columns}

    def rewrite_plan(self, name: str, index_names: Sequence[str]) -> OperandRewrite:
        """Rewrite ``A[m,k]`` to ``AV[m,q]`` with ``k -> AK[m,q]``.

        The row index stays direct (no scatter); only the column index is
        gathered through the padded column array.
        """
        if len(index_names) != 2:
            raise FormatError(f"ELL stores matrices; got {len(index_names)} indices")
        row_name, col_name = index_names
        row_var = IndexVar(row_name)
        within_var = IndexVar(self._within_var_name(index_names))
        col_access = TensorAccess(tensor=f"{name}K", indices=(row_var, within_var))
        value_access = TensorAccess(tensor=f"{name}V", indices=(row_var, within_var))
        return OperandRewrite(
            operand=name,
            value_access=value_access,
            substitutions={col_name: IndexSubstitution(exprs=(col_access,))},
            tensors=self.tensors(name),
        )

    @staticmethod
    def _within_var_name(index_names: Sequence[str]) -> str:
        candidate = "q"
        existing = set(index_names)
        while candidate in existing:
            candidate += "q"
        return candidate

    # -- runtime hooks -------------------------------------------------------------
    def with_values(self, values: np.ndarray) -> "ELL":
        """Same padded columns and occupancy, new values (the stacking primitive).

        Occupancy is carried over, not recomputed: a stacked operand may
        legitimately store an explicit zero in a pattern slot.
        """
        return ELL(self._shape, values, self.columns, self.occupancy)

    # -- storage accounting --------------------------------------------------------
    def value_count(self) -> int:
        return int(self.values.size)

    def index_count(self) -> int:
        return int(self.columns.size)

    @property
    def padding_ratio(self) -> float:
        """Fraction of stored value slots that are padding."""
        total = self.values.size
        return 1.0 - (self.nnz / total) if total else 0.0
