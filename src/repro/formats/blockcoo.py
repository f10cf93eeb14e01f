"""BlockCOO: COO over dense blocks (Figure 5 of the paper)."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.einsum.ast import IndexVar, TensorAccess
from repro.core.einsum.rewriting import IndexSubstitution, OperandRewrite
from repro.errors import FormatError, ShapeError
from repro.formats.base import SparseFormat
from repro.formats.blocking import nonzero_blocks
from repro.utils.arrays import as_index_array, as_value_array


class BlockCOO(SparseFormat):
    """Block-sparse COO: block coordinates plus dense block values.

    Attributes
    ----------
    block_rows / block_cols:
        Shape ``(n_blocks,)`` — the block coordinates (``AM``/``AK``).
    values:
        Shape ``(n_blocks, bM, bK)`` — the dense blocks (``AV``).
    """

    format_name = "BlockCOO"
    fixed_length = True

    def __init__(
        self,
        shape: Sequence[int],
        block_shape: tuple[int, int],
        block_rows: np.ndarray,
        block_cols: np.ndarray,
        values: np.ndarray,
    ):
        self._shape = tuple(int(d) for d in shape)
        self.block_shape = (int(block_shape[0]), int(block_shape[1]))
        if len(self._shape) != 2:
            raise ShapeError(f"BlockCOO is a matrix format; got shape {self._shape}")
        if self._shape[0] % self.block_shape[0] or self._shape[1] % self.block_shape[1]:
            raise ShapeError(
                f"matrix shape {self._shape} is not divisible by block shape {self.block_shape}"
            )
        self.block_rows = as_index_array(block_rows, name="BlockCOO block rows")
        self.block_cols = as_index_array(block_cols, name="BlockCOO block cols")
        self.values = as_value_array(values, name="BlockCOO values")
        n_blocks = self.block_rows.shape[0]
        if self.block_cols.shape != (n_blocks,):
            raise ShapeError("block rows and block cols must have the same length")
        expected = (n_blocks, *self.block_shape)
        if self.values.shape != expected:
            raise ShapeError(f"block values must have shape {expected}, got {self.values.shape}")
        grid = self.grid_shape
        if n_blocks and (self.block_rows.max() >= grid[0] or self.block_cols.max() >= grid[1]):
            raise ShapeError(f"block coordinates fall outside the {grid} block grid")

    @property
    def grid_shape(self) -> tuple[int, int]:
        """Number of blocks along each dimension ``(Mb, Kb)``."""
        return (
            self._shape[0] // self.block_shape[0],
            self._shape[1] // self.block_shape[1],
        )

    # -- constructors -----------------------------------------------------------
    @classmethod
    def from_dense(cls, dense: np.ndarray, block_shape: tuple[int, int]) -> "BlockCOO":
        """Build BlockCOO from a dense matrix, keeping only nonzero blocks."""
        rows, cols, blocks = nonzero_blocks(dense, block_shape)
        return cls(dense.shape, block_shape, rows, cols, blocks)

    # -- SparseFormat interface -----------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self._shape

    @property
    def nnz(self) -> int:
        return int(np.count_nonzero(self.values))

    @property
    def num_blocks(self) -> int:
        """Number of stored nonzero blocks."""
        return int(self.block_rows.shape[0])

    def to_dense(self) -> np.ndarray:
        block_rows_size, block_cols_size = self.block_shape
        dense = np.zeros(self._shape, dtype=self.values.dtype)
        for b in range(self.num_blocks):
            row = int(self.block_rows[b]) * block_rows_size
            col = int(self.block_cols[b]) * block_cols_size
            dense[row : row + block_rows_size, col : col + block_cols_size] += self.values[b]
        return dense

    def tensors(self, name: str) -> dict[str, np.ndarray]:
        return {
            f"{name}V": self.values,
            f"{name}M": self.block_rows,
            f"{name}K": self.block_cols,
        }

    def rewrite_plan(self, name: str, index_names: Sequence[str]) -> OperandRewrite:
        """Rewrite ``A[m,k]`` to ``AV[p,bm,bk]``; ``m``/``k`` split into block + offset.

        ``m -> (AM[p], bm)`` and ``k -> (AK[p], bk)``: dense tensors using
        ``m`` or ``k`` must be viewed with that axis split into
        ``(blocks, block_size)``, which the rewriter computes from the
        split sizes recorded here (Figure 5).
        """
        if len(index_names) != 2:
            raise FormatError(f"BlockCOO stores matrices; got {len(index_names)} indices")
        row_name, col_name = index_names
        existing = set(index_names)
        block_var = IndexVar(_fresh("p", existing))
        bm_var = IndexVar(_fresh("bm", existing))
        bk_var = IndexVar(_fresh("bk", existing))
        grid = self.grid_shape
        row_access = TensorAccess(tensor=f"{name}M", indices=(block_var,))
        col_access = TensorAccess(tensor=f"{name}K", indices=(block_var,))
        value_access = TensorAccess(tensor=f"{name}V", indices=(block_var, bm_var, bk_var))
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

    # -- runtime hooks ------------------------------------------------------------
    def with_values(self, values: np.ndarray) -> "BlockCOO":
        """Same block coordinates, new block values (the stacking primitive)."""
        return BlockCOO(self._shape, self.block_shape, self.block_rows, self.block_cols, values)

    # -- storage accounting -----------------------------------------------------------
    def value_count(self) -> int:
        return int(self.values.size)

    def index_count(self) -> int:
        return int(self.block_rows.size + self.block_cols.size)


def _fresh(base: str, existing: set[str]) -> str:
    candidate = base
    while candidate in existing:
        candidate += "_"
    existing.add(candidate)
    return candidate
