"""Coordinate (COO) format for tensors of arbitrary rank."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.einsum.ast import IndexVar, TensorAccess
from repro.core.einsum.rewriting import IndexSubstitution, OperandRewrite
from repro.errors import FormatError, ShapeError
from repro.formats.base import SparseFormat
from repro.utils.arrays import as_index_array, as_value_array, nonzero_entries


class COO(SparseFormat):
    """Coordinate format: one values array plus one coordinate array per axis.

    For a 2-D matrix ``A`` with index names ``(m, k)`` this is exactly the
    paper's ``AV`` / ``AM`` / ``AK`` triple (Figure 1), and SpMM becomes
    ``C[AM[p],n] += AV[p] * B[AK[p],n]`` (Figure 2).
    """

    format_name = "COO"
    fixed_length = True

    def __init__(
        self,
        shape: Sequence[int],
        values: np.ndarray,
        coords: Sequence[np.ndarray],
    ):
        self._shape = tuple(int(d) for d in shape)
        self.values = as_value_array(values, name="COO values")
        self.coords = tuple(
            as_index_array(c, name=f"COO coords[{i}]") for i, c in enumerate(coords)
        )
        if self.values.ndim != 1:
            raise ShapeError(f"COO values must be 1-D, got shape {self.values.shape}")
        if len(self.coords) != len(self._shape):
            raise ShapeError(
                f"COO needs one coordinate array per axis: got {len(self.coords)} arrays for a "
                f"rank-{len(self._shape)} tensor"
            )
        for axis, coord in enumerate(self.coords):
            if coord.shape != self.values.shape:
                raise ShapeError(
                    f"coordinate array for axis {axis} has shape {coord.shape}, expected "
                    f"{self.values.shape}"
                )
            if coord.size and (coord.min() < 0 or coord.max() >= self._shape[axis]):
                raise ShapeError(
                    f"coordinates for axis {axis} fall outside [0, {self._shape[axis]})"
                )

    # -- constructors ---------------------------------------------------------
    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "COO":
        """Build a COO tensor from a dense array, keeping only nonzeros."""
        dense = np.asarray(dense)
        coords, values = nonzero_entries(dense)
        return cls(dense.shape, values, coords)

    @classmethod
    def from_arrays(cls, shape: Sequence[int], values, *coords) -> "COO":
        """Build a COO tensor directly from value and coordinate arrays."""
        return cls(shape, values, coords)

    # -- SparseFormat interface ------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self._shape

    @property
    def nnz(self) -> int:
        return int(self.values.shape[0])

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self._shape, dtype=self.values.dtype)
        # np.add.at handles duplicate coordinates by accumulation, matching
        # the Einsum scatter-add semantics.
        np.add.at(dense, self.coords, self.values)
        return dense

    def tensors(self, name: str) -> dict[str, np.ndarray]:
        """``{name}V`` and one positional ``{name}I<axis>`` array per axis."""
        out = {f"{name}V": self.values}
        for axis, coord in enumerate(self.coords):
            out[f"{name}I{axis}"] = coord
        return out

    def rewrite_plan(self, name: str, index_names: Sequence[str]) -> OperandRewrite:
        """Rewrite ``name[i0, i1, ...]`` to ``nameV[p]`` with gathered coords.

        Each original index variable ``iX`` is substituted by the indirect
        access ``nameIX[p]`` (named after the variable, e.g. ``AM``/``AK``
        for ``A[m,k]``) wherever it appears in the statement.  The names
        live in the returned rewrite only: one instance serves any number
        of expressions, from any number of threads.
        """
        if len(index_names) != len(self._shape):
            raise FormatError(
                f"operand {name!r} is rank {len(self._shape)} but was accessed with "
                f"{len(index_names)} indices"
            )
        position_var = IndexVar(self._position_var_name(index_names))
        substitutions = {}
        tensors = {f"{name}V": self.values}
        for index_name, coord in zip(index_names, self.coords):
            coord_name = f"{name}{index_name.upper()}"
            tensors[coord_name] = coord
            coord_access = TensorAccess(tensor=coord_name, indices=(position_var,))
            substitutions[index_name] = IndexSubstitution(exprs=(coord_access,))
        value_access = TensorAccess(tensor=f"{name}V", indices=(position_var,))
        return OperandRewrite(
            operand=name,
            value_access=value_access,
            substitutions=substitutions,
            tensors=tensors,
        )

    @staticmethod
    def _position_var_name(index_names: Sequence[str]) -> str:
        """Choose a nonzero-position variable name not clashing with inputs."""
        candidate = "p"
        existing = set(index_names)
        while candidate in existing:
            candidate += "p"
        return candidate

    # -- runtime hooks ----------------------------------------------------------
    def with_values(self, values: np.ndarray) -> "COO":
        """Same coordinates, new values (the stacking primitive)."""
        return COO(self._shape, values, self.coords)

    # -- storage accounting -----------------------------------------------------
    def value_count(self) -> int:
        return self.nnz

    def index_count(self) -> int:
        return self.nnz * len(self._shape)

    def indirect_access_count(self) -> int:
        """Gathers + scatters per full traversal: every axis of every nonzero."""
        return self.nnz * len(self._shape)

    # -- conversions ---------------------------------------------------------
    def sorted_by_axis(self, axis: int = 0) -> "COO":
        """Return a copy with nonzeros sorted by the coordinates of ``axis``.

        Grouped formats are derived from row-sorted (or generally
        axis-sorted) COO, so this is the canonical pre-processing step.
        """
        order = np.argsort(self.coords[axis], kind="stable")
        return COO(
            self._shape,
            self.values[order],
            tuple(coord[order] for coord in self.coords),
        )
