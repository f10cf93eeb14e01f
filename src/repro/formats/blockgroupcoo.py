"""BlockGroupCOO: grouping applied to block-sparse COO (Figure 6 of the paper).

Nonzero blocks are grouped along the block-row dimension; the block-row
coordinate is stored once per group (``AM`` of shape ``(num_groups,)``),
block-column coordinates per slot (``AK`` of shape ``(num_groups, g)``),
and the block values as ``AV`` of shape ``(num_groups, g, bM, bK)``.
SpMM becomes ``C[AM[p],bm,n] += AV[p,q,bm,bk] * B[AK[p,q],bk,n]``, whose
``q``/``bk`` contraction against a gathered ``B`` tile is a batched matmul
that maps directly onto Tensor Cores.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.einsum.ast import IndexVar, TensorAccess
from repro.core.einsum.rewriting import IndexSubstitution, OperandRewrite
from repro.errors import FormatError, ShapeError
from repro.formats.base import SparseFormat
from repro.formats.blocking import nonzero_blocks
from repro.formats.group_size import select_group_size
from repro.utils.arrays import as_index_array, as_value_array, padded_slots


class BlockGroupCOO(SparseFormat):
    """Block-sparse format with fixed-size groups along the block-row dimension."""

    format_name = "BlockGroupCOO"
    fixed_length = True

    def __init__(
        self,
        shape: Sequence[int],
        block_shape: tuple[int, int],
        group_rows: np.ndarray,
        block_cols: np.ndarray,
        values: np.ndarray,
        nnz: int | None = None,
    ):
        self._shape = tuple(int(d) for d in shape)
        self.block_shape = (int(block_shape[0]), int(block_shape[1]))
        if len(self._shape) != 2:
            raise ShapeError(f"BlockGroupCOO is a matrix format; got shape {self._shape}")
        if self._shape[0] % self.block_shape[0] or self._shape[1] % self.block_shape[1]:
            raise ShapeError(
                f"matrix shape {self._shape} is not divisible by block shape {self.block_shape}"
            )
        self.group_rows = as_index_array(group_rows, name="BlockGroupCOO group rows")
        self.block_cols = as_index_array(block_cols, name="BlockGroupCOO block cols")
        self.values = as_value_array(values, name="BlockGroupCOO values")
        if self.group_rows.ndim != 1:
            raise ShapeError("group rows must be 1-D")
        if self.block_cols.ndim != 2:
            raise ShapeError("block cols must be 2-D (num_groups, group_size)")
        num_groups, group_size = self.block_cols.shape
        if self.group_rows.shape[0] != num_groups:
            raise ShapeError("group rows and block cols disagree on the number of groups")
        expected = (num_groups, group_size, *self.block_shape)
        if self.values.shape != expected:
            raise ShapeError(f"values must have shape {expected}, got {self.values.shape}")
        grid = self.grid_shape
        if num_groups and (self.group_rows.max() >= grid[0] or
                           (self.block_cols.size and self.block_cols.max() >= grid[1])):
            raise ShapeError(f"block coordinates fall outside the {grid} block grid")
        self._nnz = int(np.count_nonzero(self.values)) if nnz is None else int(nnz)

    @property
    def grid_shape(self) -> tuple[int, int]:
        """Number of blocks along each dimension ``(Mb, Kb)``."""
        return (
            self._shape[0] // self.block_shape[0],
            self._shape[1] // self.block_shape[1],
        )

    # -- constructors ---------------------------------------------------------------
    @classmethod
    def from_dense(
        cls,
        dense: np.ndarray,
        block_shape: tuple[int, int],
        group_size: int | None = None,
    ) -> "BlockGroupCOO":
        """Build BlockGroupCOO from a dense matrix.

        Parameters
        ----------
        dense:
            The matrix to convert (shape must divide by ``block_shape``).
        block_shape:
            ``(bM, bK)`` block dimensions.
        group_size:
            Blocks per group; when omitted the Section 4.2 heuristic picks
            it from the per-block-row occupancy.
        """
        rows, cols, blocks = nonzero_blocks(dense, block_shape)
        block_rows_count = dense.shape[0] // block_shape[0]
        occupancy = np.bincount(rows, minlength=block_rows_count)
        if group_size is None:
            group_size = select_group_size(occupancy)
        if group_size < 1:
            raise FormatError(f"group size must be >= 1, got {group_size}")

        # ``nonzero_blocks`` orders the blocks row-major: sorted by block row.
        groups = -(-occupancy // group_size)
        slots = padded_slots(occupancy, groups, group_size)
        col_arr = np.zeros(int(groups.sum()) * group_size, dtype=np.int64)
        val_arr = np.zeros((col_arr.size, *block_shape), dtype=blocks.dtype)
        col_arr[slots] = cols
        val_arr[slots] = blocks
        col_arr = col_arr.reshape(-1, group_size)
        val_arr = val_arr.reshape(-1, group_size, *block_shape)
        group_rows_arr = np.repeat(np.arange(block_rows_count, dtype=np.int64), groups)
        return cls(
            dense.shape,
            block_shape,
            group_rows_arr,
            col_arr,
            val_arr,
            nnz=int(np.count_nonzero(blocks)),  # every nonzero lies in a nonzero block
        )

    # -- SparseFormat interface ----------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self._shape

    @property
    def nnz(self) -> int:
        return self._nnz

    @property
    def group_size(self) -> int:
        """The fixed number of block slots per group (``g`` in the paper)."""
        return int(self.block_cols.shape[1]) if self.block_cols.ndim == 2 else 0

    @property
    def num_groups(self) -> int:
        """Number of stored groups (leading axis of the storage arrays)."""
        return int(self.group_rows.shape[0])

    @property
    def num_stored_blocks(self) -> int:
        """Stored block slots including padding."""
        return int(self.block_cols.size)

    def to_dense(self) -> np.ndarray:
        block_rows_size, block_cols_size = self.block_shape
        dense = np.zeros(self._shape, dtype=self.values.dtype)
        for group in range(self.num_groups):
            row = int(self.group_rows[group]) * block_rows_size
            for slot in range(self.group_size):
                col = int(self.block_cols[group, slot]) * block_cols_size
                dense[row : row + block_rows_size, col : col + block_cols_size] += self.values[
                    group, slot
                ]
        return dense

    def tensors(self, name: str) -> dict[str, np.ndarray]:
        return {
            f"{name}V": self.values,
            f"{name}M": self.group_rows,
            f"{name}K": self.block_cols,
        }

    def rewrite_plan(self, name: str, index_names: Sequence[str]) -> OperandRewrite:
        """Rewrite ``A[m,k]`` to ``AV[p,q,bm,bk]`` (Figure 6).

        ``m -> (AM[p], bm)`` and ``k -> (AK[p,q], bk)``; dense operands
        using ``m``/``k`` are viewed with the axis split into
        ``(blocks, block_size)``.
        """
        if len(index_names) != 2:
            raise FormatError(f"BlockGroupCOO stores matrices; got {len(index_names)} indices")
        row_name, col_name = index_names
        existing = set(index_names)
        group_var = IndexVar(_fresh("p", existing))
        within_var = IndexVar(_fresh("q", existing))
        bm_var = IndexVar(_fresh("bm", existing))
        bk_var = IndexVar(_fresh("bk", existing))
        grid = self.grid_shape
        row_access = TensorAccess(tensor=f"{name}M", indices=(group_var,))
        col_access = TensorAccess(tensor=f"{name}K", indices=(group_var, within_var))
        value_access = TensorAccess(
            tensor=f"{name}V", indices=(group_var, within_var, bm_var, bk_var)
        )
        return OperandRewrite(
            operand=name,
            value_access=value_access,
            substitutions={
                row_name: IndexSubstitution(
                    exprs=(row_access, bm_var), split_sizes=(grid[0], self.block_shape[0])
                ),
                col_name: IndexSubstitution(
                    exprs=(col_access, bk_var), split_sizes=(grid[1], self.block_shape[1])
                ),
            },
            tensors=self.tensors(name),
        )

    # -- runtime hooks -------------------------------------------------------------------
    def with_values(self, values: np.ndarray) -> "BlockGroupCOO":
        """Same group/block structure, new block values (the stacking primitive)."""
        return BlockGroupCOO(
            self._shape, self.block_shape, self.group_rows, self.block_cols, values
        )

    # -- storage accounting ------------------------------------------------------------------
    def value_count(self) -> int:
        return int(self.values.size)

    def index_count(self) -> int:
        return int(self.group_rows.size + self.block_cols.size)

    def indirect_access_count(self) -> int:
        """Scatters (one per group) + gathers (one per stored block slot)."""
        return self.num_groups + self.num_stored_blocks

    @property
    def padding_ratio(self) -> float:
        """Fraction of stored block slots that are all-zero padding."""
        total_blocks = self.num_stored_blocks
        if not total_blocks:
            return 0.0
        nonzero_blocks_count = int(np.any(self.values != 0, axis=(2, 3)).sum())
        return 1.0 - nonzero_blocks_count / total_blocks


def _fresh(base: str, existing: set[str]) -> str:
    candidate = base
    while candidate in existing:
        candidate += "_"
    existing.add(candidate)
    return candidate
