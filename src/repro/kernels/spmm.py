"""Structured and unstructured SpMM written as one-line indirect Einsums.

* :class:`StructuredSpMM` — block-sparse matrix times dense matrix, using
  the BlockGroupCOO format with 32x32 blocks (the Figure 10 configuration).
* :class:`UnstructuredSpMM` — unstructured sparse matrix times dense
  matrix, using GroupCOO with the Section 4.2 group-size heuristic (the
  Figure 11 configuration).
"""

from __future__ import annotations

import numpy as np

from repro.core.inductor import InductorConfig
from repro.core.insum import SparseEinsum
from repro.formats import CSR, BlockGroupCOO, GroupCOO


class StructuredSpMM:
    """Block-sparse ``C = A @ B`` via BlockGroupCOO and an indirect Einsum.

    Parameters
    ----------
    matrix:
        The sparse matrix ``A`` as a dense array (zeros included) or an
        existing :class:`BlockGroupCOO` instance.
    block_shape:
        Dense block size; the paper uses (32, 32).
    group_size:
        Group size along block rows; ``None`` applies the Section 4.2
        heuristic.
    dtype:
        ``"fp16"`` (paper default for this study) or ``"fp32"`` — affects
        the cost model, not the NumPy numerics.
    config:
        Optional backend configuration override (used by the ablation).
    """

    #: The entire user-written implementation (Table 1's "1 LoC").
    expression = "C[m,n] += A[m,k] * B[k,n]"
    lines_of_code = 1

    def __init__(
        self,
        matrix,
        block_shape: tuple[int, int] = (32, 32),
        group_size: int | None = None,
        dtype: str = "fp16",
        config: InductorConfig | None = None,
    ):
        self.dtype = dtype
        self.config = config or InductorConfig.insum()
        self._einsum = SparseEinsum(self.expression, config=self.config)
        if isinstance(matrix, BlockGroupCOO):
            self.format = matrix
        else:
            self.format = BlockGroupCOO.from_dense(
                np.asarray(matrix), block_shape, group_size=group_size
            )

    def __call__(self, dense: np.ndarray) -> np.ndarray:
        """Multiply the stored sparse matrix by ``dense``."""
        return self._einsum(A=self.format, B=np.asarray(dense))

    def estimate_ms(self, num_cols: int) -> float:
        """Modelled GPU runtime for a dense operand with ``num_cols`` columns."""
        dense = np.zeros((self.format.shape[1], num_cols), dtype=np.float32)
        return self._einsum.estimate(A=self.format, B=dense).price(self.dtype).estimated_ms

    # -- introspection ------------------------------------------------------
    @property
    def compiled(self):
        """The compiled kernel from the most recent call."""
        return self._einsum.compiled

    @property
    def modeled_ms(self) -> float | None:
        """Modelled GPU runtime of the most recent call (milliseconds)."""
        compiled = self._einsum.compiled
        return None if compiled is None else compiled.price(self.dtype).estimated_ms

    @property
    def compile_seconds(self) -> float:
        return self._einsum.compile_seconds


class UnstructuredSpMM:
    """Unstructured sparse ``C = A @ B`` via GroupCOO and an indirect Einsum."""

    expression = "C[m,n] += A[m,k] * B[k,n]"
    lines_of_code = 1

    def __init__(
        self,
        matrix,
        group_size: int | None = None,
        dtype: str = "fp32",
        config: InductorConfig | None = None,
    ):
        if isinstance(matrix, GroupCOO):
            self.format = matrix
        elif isinstance(matrix, CSR):
            self.format = GroupCOO.from_csr(matrix, group_size=group_size)
        else:
            self.format = GroupCOO.from_dense(np.asarray(matrix), group_size=group_size)
        self.dtype = dtype
        self.config = config or InductorConfig.insum()
        self._einsum = SparseEinsum(self.expression, config=self.config)

    def __call__(self, dense: np.ndarray) -> np.ndarray:
        """Multiply the stored sparse matrix by ``dense``."""
        return self._einsum(A=self.format, B=np.asarray(dense))

    def estimate_ms(self, num_cols: int) -> float:
        """Modelled GPU runtime for a dense operand with ``num_cols`` columns."""
        dense = np.zeros((self.format.shape[1], num_cols), dtype=np.float32)
        return self._einsum.estimate(A=self.format, B=dense).price(self.dtype).estimated_ms

    @property
    def compiled(self):
        return self._einsum.compiled

    @property
    def modeled_ms(self) -> float | None:
        compiled = self._einsum.compiled
        return None if compiled is None else compiled.price(self.dtype).estimated_ms

    @property
    def compile_seconds(self) -> float:
        return self._einsum.compile_seconds

    @property
    def group_size(self) -> int:
        """The group size actually chosen for the GroupCOO format."""
        return self.format.group_size
