"""Abstract base class shared by all sparse formats."""

from __future__ import annotations

import abc
from typing import Sequence

import numpy as np

from repro.core.einsum.rewriting import OperandRewrite
from repro.errors import FormatError


class SparseFormat(abc.ABC):
    """Common interface of every sparse format in the repro package.

    A format owns the *data* (nonzero values) and *metadata* (coordinates,
    pointers, group structure) of one sparse tensor, knows how to convert
    to/from a dense array, and — for fixed-length formats — knows how to
    describe itself to the Einsum rewriter via :meth:`rewrite_plan`.
    """

    #: Human-readable format name, e.g. ``"GroupCOO"``.
    format_name: str = "Sparse"

    #: Whether the format has fixed loop bounds and can therefore be used
    #: directly in an indirect Einsum (Section 4).
    fixed_length: bool = True

    @property
    @abc.abstractmethod
    def shape(self) -> tuple[int, ...]:
        """Logical dense shape of the tensor."""

    @property
    @abc.abstractmethod
    def nnz(self) -> int:
        """Number of stored, non-padding nonzero entries."""

    @abc.abstractmethod
    def to_dense(self) -> np.ndarray:
        """Materialise the tensor as a dense NumPy array."""

    @abc.abstractmethod
    def tensors(self, name: str) -> dict[str, np.ndarray]:
        """Data/metadata arrays keyed by the names used in indirect Einsums.

        ``name`` is the operand name in the user's Einsum (e.g. ``"A"``),
        so GroupCOO produces ``{"AV": ..., "AM": ..., "AK": ...}`` exactly as
        written in the paper.  The mapping depends on ``name`` alone, never
        on an expression the instance was used in (COO names its coordinate
        arrays after the index variables only inside ``rewrite_plan``).
        """

    def rewrite_plan(self, name: str, index_names: Sequence[str]) -> OperandRewrite:
        """Build the rewrite plan turning ``name[index_names]`` into this format.

        Fixed-length formats override this.  Variable-length formats raise,
        explaining the limitation described in Section 4 of the paper.
        """
        raise FormatError(
            f"{self.format_name} is not a fixed-length format: its loop bounds depend on data "
            "values (per-row nonzero counts), which cannot be expressed as an indirect Einsum. "
            "Convert to COO, ELL, GroupCOO, BlockCOO, or BlockGroupCOO first."
        )

    # -- runtime hook -------------------------------------------------------
    # Powers the serving runtime's stacking of same-pattern operands
    # (repro.runtime.StackedSparse).  Formats opt in by overriding.
    def with_values(self, values: np.ndarray) -> "SparseFormat":
        """A copy of this format with its value array replaced.

        Metadata (coordinates, pointers, group structure) is shared with
        the original — the new instance describes the *same sparsity
        pattern* over different values.
        """
        raise FormatError(
            f"{self.format_name} does not support value replacement; implement with_values "
            "to enable stacking"
        )

    def fingerprint(self) -> tuple:
        """Identity fingerprint of this operand's sparsity *pattern*.

        Combines the format class, logical shape, value-array signature,
        and the identity tokens of the metadata arrays (values excluded) —
        see :func:`repro.engine.fingerprint.pattern_fingerprint`.  Two
        instances share a fingerprint exactly when they reference the same
        live metadata arrays, which is what the cluster router's affinity
        key and the codec's pattern cache key on.  Memoized per instance
        (formats are immutable).
        """
        cached = getattr(self, "_fingerprint_memo", None)
        if cached is None:
            from repro.engine.fingerprint import pattern_fingerprint

            cached = pattern_fingerprint(self)
            self._fingerprint_memo = cached
        return cached

    def __getstate__(self) -> dict:
        """The state a pickle or ``copy.deepcopy`` takes: everything but the
        fingerprint and profile memos, which name the original's arrays."""
        state = self.__dict__.copy()
        state.pop("_fingerprint_memo", None)
        state.pop("_profile_memo", None)
        return state

    # -- storage accounting -------------------------------------------------
    def value_count(self) -> int:
        """Number of stored value slots, including padding."""
        return self.nnz

    def index_count(self) -> int:
        """Number of stored metadata (index/pointer) slots."""
        return 0

    def memory_bytes(self, value_itemsize: int = 4, index_itemsize: int = 4) -> int:
        """Approximate storage footprint of the format in bytes."""
        return self.value_count() * value_itemsize + self.index_count() * index_itemsize

    # -- niceties -------------------------------------------------------------
    @property
    def density(self) -> float:
        """Fraction of logically nonzero entries."""
        total = 1
        for dim in self.shape:
            total *= dim
        return self.nnz / total if total else 0.0

    @property
    def sparsity(self) -> float:
        """Fraction of zero entries (1 - density)."""
        return 1.0 - self.density

    def __repr__(self) -> str:
        dims = "x".join(str(d) for d in self.shape)
        return f"{self.format_name}(shape={dims}, nnz={self.nnz})"
