"""StackedSparse: a batch of same-pattern sparse operands executed as one Einsum.

Serving workloads rarely present a single sparse matrix: quantum-transport
solvers carry a *stack* of matrices sharing one sparsity pattern (one per
energy point — the ``DSBCOO`` structure in QuantumTransportToolbox), GNN
inference batches graphs with a shared adjacency structure, and equivariant
networks reuse one Clebsch–Gordan pattern across samples.  Running such a
stack through a Python loop of ``sparse_einsum`` calls pays the frontend
overhead (rewrite, validation, cache lookups) once *per item* and executes
many small kernels.

:class:`StackedSparse` stores the stack as **one** ``(stack, *value_shape)``
data array over **shared** metadata, and — because it is itself a
:class:`~repro.formats.base.SparseFormat` — plugs into the existing
rewrite machinery: accessing it as ``A[s,m,k]`` simply widens the base
format's indirect Einsum with the leading stack index, e.g. for GroupCOO::

    C[s,m,n] += A[s,m,k] * B[k,n]      # A is a StackedSparse over GroupCOO
    ->  C[s,AM[p],n] += AV[s,p,q] * B[AK[p,q],n]

so the whole stack executes as a single widened indirect Einsum (one
compile, one vectorised NumPy execution) instead of a per-item loop.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Sequence

import numpy as np

from repro.core.einsum.ast import IndexExpr, IndexVar, TensorAccess
from repro.core.einsum.rewriting import OperandRewrite
from repro.errors import FormatError, ShapeError
from repro.formats.base import SparseFormat
from repro.utils.arrays import as_value_array


def _values_of(fmt: SparseFormat) -> np.ndarray:
    """The value array of a format, via the uniform ``{name}V`` tensor key."""
    return fmt.tensors("_")["_V"]


def _introduced_var_names(rewrite: OperandRewrite, user_names: set[str]) -> set[str]:
    """Index-variable names a rewrite introduced beyond the user's own."""

    def walk(expr: IndexExpr) -> Iterator[str]:
        if isinstance(expr, IndexVar):
            yield expr.name
        elif isinstance(expr, TensorAccess):
            for var in expr.index_vars():
                yield var.name

    names: set[str] = set()
    for index in rewrite.value_access.indices:
        names.update(walk(index))
    for substitution in rewrite.substitutions.values():
        for expr in substitution.exprs:
            names.update(walk(expr))
    return names - user_names


class StackedSparse(SparseFormat):
    """A stack of same-pattern sparse operands behind one shared metadata set.

    Parameters
    ----------
    base:
        The pattern-defining sparse operand (any fixed-length format; BCSR
        and CSR stacks are supported for storage and conversion, but only
        fixed-length bases can execute as indirect Einsums).
    data:
        Array of shape ``(stack_size, *base_value_shape)`` holding every
        item's values over the shared pattern.
    """

    format_name = "StackedSparse"

    def __init__(self, base: SparseFormat, data: np.ndarray):
        if isinstance(base, StackedSparse):
            raise FormatError("nesting StackedSparse inside StackedSparse is not supported")
        self.base = base
        self.data = as_value_array(data, name="StackedSparse data")
        base_shape = _values_of(base).shape
        if self.data.ndim != len(base_shape) + 1:
            raise ShapeError(
                f"stacked data must have shape (stack, {'x'.join(map(str, base_shape))}); "
                f"got {self.data.shape}"
            )
        if self.data.shape[1:] != base_shape:
            raise ShapeError(
                f"stacked data slices have shape {self.data.shape[1:]}, but the base "
                f"{base.format_name} stores values of shape {base_shape}"
            )
        if self.data.shape[0] < 1:
            raise ShapeError("a StackedSparse needs at least one stack item")
        self.fixed_length = base.fixed_length

    # -- constructors -------------------------------------------------------
    @classmethod
    def from_items(cls, items: Sequence[SparseFormat]) -> "StackedSparse":
        """Stack existing format instances that share one sparsity pattern.

        Every item must be the same format class with bit-identical
        metadata (coordinates, pointers, group structure); only the values
        may differ.
        """
        items = list(items)
        if not items:
            raise FormatError("StackedSparse.from_items needs at least one item")
        first = items[0]
        reference = first.tensors("_")
        for position, item in enumerate(items[1:], start=1):
            if type(item) is not type(first):
                raise FormatError(
                    f"item {position} is {item.format_name}, expected {first.format_name}"
                )
            if item.shape != first.shape:
                raise FormatError(
                    f"item {position} has shape {item.shape}, expected {first.shape}"
                )
            current = item.tensors("_")
            for key, array in reference.items():
                if key == "_V":
                    if current[key].shape != array.shape:
                        raise FormatError(
                            f"item {position} stores values of shape {current[key].shape}, "
                            f"expected {array.shape} — stack items must share one pattern"
                        )
                elif not np.array_equal(current[key], array):
                    raise FormatError(
                        f"item {position} differs from item 0 in metadata tensor {key!r}; "
                        "StackedSparse requires one shared sparsity pattern"
                    )
        data = np.stack([_values_of(item) for item in items])
        return cls(first, data)

    @classmethod
    def from_dense(
        cls,
        dense_stack: np.ndarray,
        format_factory: Callable[..., SparseFormat] | str = "auto",
        **format_kwargs: Any,
    ) -> "StackedSparse":
        """Build a stack from dense arrays, over the union sparsity pattern.

        The union pattern (positions nonzero in *any* item) is converted
        once through ``format_factory`` (e.g. ``GroupCOO.from_dense``, a
        format class, or the string ``"auto"`` to let :mod:`repro.tuner`
        profile the union pattern and pick the format), then every item's
        values are gathered into the pattern's storage slots — items are
        allowed to hold explicit zeros where other items have nonzeros.

        The gather uses a positional trick: the pattern matrix is encoded
        with each position's flat index (+1), converted to the target
        format, and the resulting value array then *is* the slot → position
        map (0 marks padding slots).

        Parameters
        ----------
        dense_stack:
            Array of shape ``(stack, rows, cols)`` (or higher-rank items
            for explicit factories).
        format_factory:
            A format class, a callable building a format from a dense
            array, or ``"auto"`` (the default) for tuner selection.
        **format_kwargs:
            Extra keyword arguments for the factory (e.g. ``group_size``);
            not accepted with ``"auto"``.

        Returns
        -------
        StackedSparse
            The stacked operand over the chosen pattern format.
        """
        stack = np.asarray(dense_stack)
        if stack.ndim < 2:
            raise ShapeError(
                f"from_dense expects a (stack, ...) array of rank >= 2, got {stack.shape}"
            )
        union_mask = np.any(stack != 0, axis=0)
        if isinstance(format_factory, str):
            if format_factory != "auto":
                raise FormatError(
                    f"unknown format_factory {format_factory!r}; pass a format class, a "
                    "callable, or 'auto'"
                )
            if format_kwargs:
                raise FormatError(
                    "format_factory='auto' picks the parameters itself; drop "
                    f"{sorted(format_kwargs)}"
                )
            if stack.ndim != 3:
                raise ShapeError(
                    "format_factory='auto' profiles matrix stacks (rank 3); got "
                    f"shape {stack.shape}"
                )
            from repro.tuner.auto import choose_format
            from repro.tuner.profile import profile_operand

            format_factory = choose_format(profile_operand(union_mask)).candidate.build
        factory = (
            format_factory.from_dense  # type: ignore[union-attr]
            if isinstance(format_factory, type)
            else format_factory
        )
        item_shape = stack.shape[1:]
        positions = np.where(
            union_mask,
            np.arange(1, union_mask.size + 1, dtype=np.float64).reshape(item_shape),
            0.0,
        )
        pattern = factory(positions, **format_kwargs)
        slot_positions = np.rint(_values_of(pattern)).astype(np.int64)

        flat_items = stack.reshape(stack.shape[0], -1)
        gather_index = np.maximum(slot_positions - 1, 0).reshape(-1)
        gathered = flat_items[:, gather_index].reshape((stack.shape[0],) + slot_positions.shape)
        data = np.where(slot_positions > 0, gathered, 0.0)
        return cls(pattern.with_values(data[0]), data)

    # -- stack access -------------------------------------------------------
    @property
    def stack_size(self) -> int:
        """Number of stacked items (the leading axis of ``data``)."""
        return int(self.data.shape[0])

    def item(self, position: int) -> SparseFormat:
        """The single-operand view of one stack item (shared metadata)."""
        return self.base.with_values(self.data[position])

    def items(self) -> Iterator[SparseFormat]:
        """Iterate the per-item views, in stack order."""
        for position in range(self.stack_size):
            yield self.item(position)

    def __len__(self) -> int:
        return self.stack_size

    # -- SparseFormat interface --------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return (self.stack_size, *self.base.shape)

    @property
    def nnz(self) -> int:
        return int(np.count_nonzero(self.data))

    def to_dense(self) -> np.ndarray:
        return np.stack([item.to_dense() for item in self.items()])

    def tensors(self, name: str) -> dict[str, np.ndarray]:
        out = self.base.tensors(name)
        out[f"{name}V"] = self.data
        return out

    def rewrite_plan(self, name: str, index_names: Sequence[str]) -> OperandRewrite:
        """Widen the base format's rewrite with the leading stack index.

        ``A[s,m,k]`` delegates ``(m, k)`` to the base format and prepends
        the plain stack variable ``s`` to the value access, so COO's
        ``AV[p]`` becomes ``AV[s,p]``, GroupCOO's ``AV[p,q]`` becomes
        ``AV[s,p,q]``, and so on.  The metadata substitutions are shared
        across the stack and pass through unchanged.
        """
        expected = len(self.base.shape) + 1
        if len(index_names) != expected:
            raise FormatError(
                f"StackedSparse over {self.base.format_name} is rank {expected} "
                f"(stack + base); got {len(index_names)} indices"
            )
        stack_name = index_names[0]
        base_rewrite = self.base.rewrite_plan(name, list(index_names[1:]))
        introduced = _introduced_var_names(base_rewrite, set(index_names[1:]))
        if stack_name in introduced:
            raise FormatError(
                f"the stack index {stack_name!r} collides with a variable introduced by the "
                f"{self.base.format_name} rewrite ({sorted(introduced)}); rename the stack index"
            )
        value_access = TensorAccess(
            tensor=base_rewrite.value_access.tensor,
            indices=(IndexVar(stack_name), *base_rewrite.value_access.indices),
        )
        tensors = dict(base_rewrite.tensors)
        tensors[f"{name}V"] = self.data
        return OperandRewrite(
            operand=name,
            value_access=value_access,
            substitutions=base_rewrite.substitutions,
            tensors=tensors,
        )

    # -- runtime hooks ------------------------------------------------------
    def with_values(self, values: np.ndarray) -> "StackedSparse":
        return StackedSparse(self.base, values)

    # -- storage accounting -------------------------------------------------
    def value_count(self) -> int:
        return int(self.data.size)

    def index_count(self) -> int:
        return self.base.index_count()

    def __repr__(self) -> str:
        dims = "x".join(str(d) for d in self.base.shape)
        return (
            f"StackedSparse({self.base.format_name}, stack={self.stack_size}, "
            f"shape={dims}, nnz={self.nnz})"
        )
