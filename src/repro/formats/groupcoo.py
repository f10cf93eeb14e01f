"""GroupCOO: the paper's fixed-length format between COO and ELL (Section 4.1).

Nonzeros are partitioned into groups of a fixed size ``g`` along one
dimension (rows by default).  The grouped coordinate is stored once per
group (``AM``), while the other coordinate and the values are stored per
slot (``AK``/``AV`` of shape ``(num_groups, g)``), padded with zeros.

* ``g = 1`` degenerates to COO (every nonzero is its own group).
* ``g = max_i occ_i`` with one group per row degenerates to ELL.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.einsum.ast import IndexVar, TensorAccess
from repro.core.einsum.rewriting import IndexSubstitution, OperandRewrite
from repro.errors import FormatError, ShapeError
from repro.formats.base import SparseFormat
from repro.formats.csr import CSR
from repro.formats.group_size import select_group_size
from repro.utils.arrays import as_index_array, as_value_array, padded_slots


class GroupCOO(SparseFormat):
    """Row-grouped COO with fixed group size.

    Attributes
    ----------
    group_rows:
        Shape ``(num_groups,)`` — the row coordinate shared by each group
        (``AM`` in the paper's Einsums).
    columns:
        Shape ``(num_groups, group_size)`` — per-slot column coordinates
        (``AK``), padded with ``0`` for unused slots.
    values:
        Shape ``(num_groups, group_size)`` — per-slot values (``AV``),
        padded with ``0.0`` so padded slots contribute nothing.
    """

    format_name = "GroupCOO"
    fixed_length = True

    def __init__(
        self,
        shape: Sequence[int],
        group_rows: np.ndarray,
        columns: np.ndarray,
        values: np.ndarray,
        nnz: int | None = None,
    ):
        self._shape = tuple(int(d) for d in shape)
        if len(self._shape) != 2:
            raise ShapeError(f"GroupCOO is a matrix format; got shape {self._shape}")
        self.group_rows = as_index_array(group_rows, name="GroupCOO group rows")
        self.columns = as_index_array(columns, name="GroupCOO columns")
        self.values = as_value_array(values, name="GroupCOO values")
        if self.group_rows.ndim != 1:
            raise ShapeError("group rows must be 1-D")
        if self.columns.ndim != 2 or self.values.shape != self.columns.shape:
            raise ShapeError("columns and values must be 2-D arrays of identical shape")
        if self.columns.shape[0] != self.group_rows.shape[0]:
            raise ShapeError(
                f"{self.columns.shape[0]} column groups but {self.group_rows.shape[0]} group rows"
            )
        if self.group_rows.size and (
            self.group_rows.min() < 0 or self.group_rows.max() >= self._shape[0]
        ):
            raise ShapeError(f"group row coordinates fall outside [0, {self._shape[0]})")
        if self.columns.size and (self.columns.min() < 0 or self.columns.max() >= self._shape[1]):
            raise ShapeError(f"column coordinates fall outside [0, {self._shape[1]})")
        self._nnz = int(np.count_nonzero(self.values)) if nnz is None else int(nnz)

    # -- constructors -------------------------------------------------------------
    @classmethod
    def from_dense(cls, dense: np.ndarray, group_size: int | None = None) -> "GroupCOO":
        """Build GroupCOO from a dense matrix.

        If ``group_size`` is omitted, the Section 4.2 heuristic
        (``g* = sqrt(S/n)`` rounded to a power of two) selects it.
        """
        return cls.from_csr(CSR.from_dense(dense), group_size=group_size)

    @classmethod
    def from_csr(cls, csr: CSR, group_size: int | None = None) -> "GroupCOO":
        """Build GroupCOO from CSR (rows already sorted and counted)."""
        occupancy = csr.row_occupancy()
        if group_size is None:
            group_size = select_group_size(occupancy)
        if group_size < 1:
            raise FormatError(f"group size must be >= 1, got {group_size}")

        groups = -(-occupancy // group_size)
        slots = padded_slots(occupancy, groups, group_size)
        columns = np.zeros(int(groups.sum()) * group_size, dtype=np.int64)
        values = np.zeros(columns.size, dtype=csr.data.dtype)
        columns[slots] = csr.indices
        values[slots] = csr.data
        columns, values = columns.reshape(-1, group_size), values.reshape(-1, group_size)
        rows = np.repeat(np.arange(csr.shape[0], dtype=np.int64), groups)
        return cls(csr.shape, rows, columns, values, nnz=csr.nnz)

    @classmethod
    def from_coo(cls, coo, group_size: int | None = None) -> "GroupCOO":
        """Build GroupCOO from a (possibly unsorted) COO tensor, via CSR."""
        return cls.from_csr(CSR.from_coo(coo), group_size=group_size)

    # -- SparseFormat interface -----------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self._shape

    @property
    def nnz(self) -> int:
        return self._nnz

    @property
    def group_size(self) -> int:
        """The fixed number of slots per group (``g`` in the paper)."""
        return int(self.columns.shape[1]) if self.columns.ndim == 2 else 0

    @property
    def num_groups(self) -> int:
        """Number of stored groups (rows of the ``columns``/``values`` arrays)."""
        return int(self.group_rows.shape[0])

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self._shape, dtype=self.values.dtype)
        for group in range(self.num_groups):
            row = int(self.group_rows[group])
            np.add.at(dense[row], self.columns[group], self.values[group])
        return dense

    def tensors(self, name: str) -> dict[str, np.ndarray]:
        return {
            f"{name}V": self.values,
            f"{name}M": self.group_rows,
            f"{name}K": self.columns,
        }

    def rewrite_plan(self, name: str, index_names: Sequence[str]) -> OperandRewrite:
        """Rewrite ``A[m,k]`` to ``AV[p,q]`` with ``m -> AM[p]``, ``k -> AK[p,q]``."""
        if len(index_names) != 2:
            raise FormatError(f"GroupCOO stores matrices; got {len(index_names)} indices")
        row_name, col_name = index_names
        existing = set(index_names)
        group_var = IndexVar(_fresh("p", existing))
        within_var = IndexVar(_fresh("q", existing))
        row_access = TensorAccess(tensor=f"{name}M", indices=(group_var,))
        col_access = TensorAccess(tensor=f"{name}K", indices=(group_var, within_var))
        value_access = TensorAccess(tensor=f"{name}V", indices=(group_var, within_var))
        return OperandRewrite(
            operand=name,
            value_access=value_access,
            substitutions={
                row_name: IndexSubstitution(exprs=(row_access,)),
                col_name: IndexSubstitution(exprs=(col_access,)),
            },
            tensors=self.tensors(name),
        )

    # -- runtime hooks -------------------------------------------------------------
    def with_values(self, values: np.ndarray) -> "GroupCOO":
        """Same group structure, new per-slot values (the stacking primitive)."""
        return GroupCOO(self._shape, self.group_rows, self.columns, values)

    # -- storage accounting ------------------------------------------------------------
    def value_count(self) -> int:
        return int(self.values.size)

    def index_count(self) -> int:
        return int(self.group_rows.size + self.columns.size)

    def indirect_access_count(self) -> int:
        """Scatters (one per group) + gathers (one per stored slot): F(g)."""
        return self.num_groups + int(self.columns.size)

    @property
    def padding_ratio(self) -> float:
        """Fraction of stored value slots that are padding."""
        total = self.values.size
        return 1.0 - (self._nnz / total) if total else 0.0


def _fresh(base: str, existing: set[str]) -> str:
    candidate = base
    while candidate in existing:
        candidate += base
    existing.add(candidate)
    return candidate
