"""Semantic validation and shape/extent inference for indirect Einsums.

Given a parsed :class:`EinsumStatement` and the NumPy tensors bound to each
name, :func:`validate` infers the iteration extent of every index variable,
checks the binding for consistency, and returns a :class:`ProgramInfo`
summary used by the rest of the compiler.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.einsum.ast import (
    EinsumStatement,
    IndexVar,
    IntLiteral,
    TensorAccess,
)
from repro.errors import EinsumValidationError


@dataclass
class ProgramInfo:
    """Everything the compiler needs to know about a validated statement.

    Attributes
    ----------
    statement:
        The parsed AST.
    extents:
        Iteration extent for each index variable (``{"p": 64, "n": 128}``).
    tensor_shapes:
        Shape of every bound tensor.
    output_name:
        Name of the output tensor (the LHS tensor).
    output_vars / reduction_vars:
        Index variables that appear on the LHS vs. only on the RHS.
    scatter_vars:
        Index variables whose LHS use goes through an indirect access
        (their writes require a scatter / atomic add on the device).
    gather_tensors:
        Names of metadata tensors used as indices (e.g. ``AM``, ``AK``).
    """

    statement: EinsumStatement
    extents: dict[str, int]
    tensor_shapes: dict[str, tuple[int, ...]]
    output_name: str
    output_vars: list[str]
    reduction_vars: list[str]
    scatter_vars: list[str] = field(default_factory=list)
    gather_tensors: list[str] = field(default_factory=list)

    @property
    def loop_vars(self) -> list[str]:
        """All iteration variables: output variables first, then reductions."""
        return [*self.output_vars, *self.reduction_vars]

    def loop_extent(self, name: str) -> int:
        """Extent of a single loop variable."""
        return self.extents[name]

    @property
    def iteration_space_size(self) -> int:
        """Total number of points in the (dense) iteration space."""
        size = 1
        for var in self.loop_vars:
            size *= self.extents[var]
        return size


def _check_integer_index_tensor(name: str, array: np.ndarray) -> None:
    if array.dtype.kind not in "iu":
        raise EinsumValidationError(
            f"tensor {name!r} is used as an index but has non-integer dtype {array.dtype}"
        )


def _record_extent(extents: dict[str, int], var: str, size: int, context: str) -> None:
    existing = extents.get(var)
    if existing is None:
        extents[var] = int(size)
    elif existing != size:
        raise EinsumValidationError(
            f"index variable {var!r} has inconsistent extents: {existing} vs {size} ({context})"
        )


def _walk_access(
    access: TensorAccess,
    tensors: dict[str, np.ndarray],
    extents: dict[str, int],
    gather_tensors: list[str],
) -> None:
    """Infer extents from one access and recurse into its nested accesses."""
    if access.tensor not in tensors:
        raise EinsumValidationError(f"tensor {access.tensor!r} is not bound to a value")
    array = tensors[access.tensor]
    if array.ndim != access.ndim:
        raise EinsumValidationError(
            f"tensor {access.tensor!r} has {array.ndim} dimensions but is accessed "
            f"with {access.ndim} indices in {access}"
        )
    for axis, index in enumerate(access.indices):
        dim = array.shape[axis]
        context = f"axis {axis} of {access.tensor!r}"
        if isinstance(index, IndexVar):
            _record_extent(extents, index.name, dim, context)
        elif isinstance(index, IntLiteral):
            if not 0 <= index.value < dim:
                raise EinsumValidationError(
                    f"constant index {index.value} is out of bounds for {context} (size {dim})"
                )
        elif isinstance(index, TensorAccess):
            if index.tensor not in tensors:
                raise EinsumValidationError(
                    f"index tensor {index.tensor!r} is not bound to a value"
                )
            index_array = tensors[index.tensor]
            _check_integer_index_tensor(index.tensor, index_array)
            if index.tensor not in gather_tensors:
                gather_tensors.append(index.tensor)
            _walk_access(index, tensors, extents, gather_tensors)


def validate(
    statement: EinsumStatement,
    tensors: dict[str, np.ndarray],
) -> ProgramInfo:
    """Validate a statement against bound tensors and infer loop extents.

    Parameters
    ----------
    statement:
        Parsed indirect-Einsum statement.
    tensors:
        Mapping from tensor name to NumPy array.  Every name referenced in
        the statement (including metadata/index tensors) must be present.
        Only shapes and dtypes are read: the executor checks index values
        where it loads them.

    Returns
    -------
    ProgramInfo

    Raises
    ------
    EinsumValidationError
        If any binding, shape, dtype, or constant-index check fails.
    """
    arrays = {name: np.asarray(value) for name, value in tensors.items()}

    missing = [name for name in statement.tensor_names() if name not in arrays]
    if missing:
        raise EinsumValidationError(
            f"missing tensor bindings for: {', '.join(sorted(missing))}"
        )

    extents: dict[str, int] = {}
    gather_tensors: list[str] = []
    for access in statement.all_accesses():
        _walk_access(access, arrays, extents, gather_tensors)

    all_vars = statement.index_var_names()
    unresolved = [v for v in all_vars if v not in extents]
    if unresolved:
        raise EinsumValidationError(
            f"could not infer an extent for index variables: {', '.join(unresolved)}"
        )

    output_vars = statement.output_index_vars()
    reduction_vars = statement.reduction_index_vars()

    rhs_vars = {v.name for v in statement.rhs.index_vars()}
    lhs_only = [v for v in output_vars if v not in rhs_vars]
    if lhs_only:
        raise EinsumValidationError(
            "index variables appear on the left-hand side but never on the right-hand "
            f"side: {', '.join(lhs_only)}"
        )

    scatter_vars: list[str] = []
    for index in statement.lhs.indices:
        if isinstance(index, TensorAccess):
            for var in index.index_vars():
                if var.name not in scatter_vars:
                    scatter_vars.append(var.name)

    return ProgramInfo(
        statement=statement,
        extents=extents,
        tensor_shapes={name: tuple(arr.shape) for name, arr in arrays.items()},
        output_name=statement.lhs.tensor,
        output_vars=output_vars,
        reduction_vars=reduction_vars,
        scatter_vars=scatter_vars,
        gather_tensors=gather_tensors,
    )
