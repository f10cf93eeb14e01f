"""Planning the gather → einsum → scatter decomposition of an indirect Einsum.

This is the Insum compiler of Section 5.1: given a validated indirect
Einsum, decide how to

1. gather every factor with indirect indices into a dense temporary,
2. contract the gathered factors with a single dense ``einsum``, and
3. scatter the result into the output when the left-hand side is indirect,
   or add it directly otherwise.

The :class:`InsumPlan` is the IR: it records the loop subscripts of every
stage, which loads are indirect and the contraction's equation — what the
Inductor-like backend fuses and maps onto Tensor Cores, and what
:class:`~repro.engine.specialize.SpecializedKernel` compiles to steps.
"""

from __future__ import annotations

import string
from dataclasses import dataclass, field

import numpy as np

from repro.core.einsum.ast import (
    EinsumStatement,
    IndexVar,
    IntLiteral,
    TensorAccess,
)
from repro.core.einsum.parser import parse_einsum
from repro.core.einsum.validation import ProgramInfo, validate
from repro.errors import LoweringError


@dataclass
class FactorPlan:
    """How one right-hand-side factor is brought into dense form.

    Attributes
    ----------
    access:
        The original access from the Einsum (e.g. ``B[AK[p,q],n]``).
    subscripts:
        Loop variables of the dense temporary, one per axis, in order.
    gather_index:
        Name of the metadata tensor used to gather, or ``None`` for direct
        factors.
    gather_axis:
        The axis of the original tensor that is gathered.
    gathered_elements:
        Number of elements the gather reads (used by the cost model).
    """

    access: TensorAccess
    subscripts: list[str]
    gather_index: str | None = None
    gather_axis: int | None = None
    gathered_elements: int = 0

    @property
    def is_indirect(self) -> bool:
        return self.gather_index is not None


@dataclass
class InsumPlan:
    """Complete lowering plan for one indirect Einsum statement."""

    statement: EinsumStatement
    info: ProgramInfo
    factors: list[FactorPlan]
    einsum_equation: str
    output_subscripts: list[str]
    scatter_index: str | None
    scatter_dim: int | None
    scatter_index_subscripts: list[str] = field(default_factory=list)
    #: Bytes per element of the right-hand-side operands' common dtype; the
    #: executor sizes its windows from it.
    value_itemsize: int = 8

    @property
    def has_scatter(self) -> bool:
        return self.scatter_index is not None

    @property
    def has_gather(self) -> bool:
        return any(f.is_indirect for f in self.factors)

    @property
    def contraction_flops(self) -> int:
        """Floating-point operation count of the dense contraction stage.

        Every point of the iteration space performs one multiply per extra
        factor plus one accumulate, so a two-factor contraction costs the
        familiar ``2 * |iteration space|``.
        """
        size = 1
        for var in self.info.loop_vars:
            size *= self.info.extents[var]
        return size * max(2, len(self.factors))

    def describe(self) -> str:
        """Readable multi-line summary (used by examples and docs)."""
        lines = [f"indirect einsum : {self.statement}"]
        for factor in self.factors:
            kind = (
                f"gather via {factor.gather_index} (axis {factor.gather_axis})"
                if factor.is_indirect
                else "direct"
            )
            lines.append(
                f"  factor {str(factor.access):<30s} -> tmp[{','.join(factor.subscripts)}] ({kind})"
            )
        lines.append(f"  contraction     : einsum('{self.einsum_equation}')")
        if self.has_scatter:
            lines.append(
                f"  scatter         : index_add(dim={self.scatter_dim}, index={self.scatter_index})"
            )
        else:
            lines.append("  scatter         : none (direct output)")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Factor analysis
# ---------------------------------------------------------------------------
def _analyse_factor(access: TensorAccess, info: ProgramInfo) -> FactorPlan:
    """Classify one RHS factor and derive its dense-temporary subscripts."""
    indirect_axes = [
        axis for axis, ix in enumerate(access.indices) if isinstance(ix, TensorAccess)
    ]
    if not indirect_axes:
        subscripts = [
            ix.name for ix in access.indices if isinstance(ix, IndexVar)
        ]
        return FactorPlan(access=access, subscripts=subscripts)

    if len(indirect_axes) > 1:
        raise LoweringError(
            f"factor {access} gathers along {len(indirect_axes)} axes; the Insum planner "
            "currently supports one indirect axis per factor (every kernel in the paper "
            "has this form). Restructure the expression or pre-gather one of the axes."
        )

    axis = indirect_axes[0]
    index_access = access.indices[axis]
    assert isinstance(index_access, TensorAccess)
    if not index_access.is_direct:
        raise LoweringError(
            f"nested indirect indexing in {access} is not supported; flatten the metadata "
            "tensor first"
        )
    for other_axis, ix in enumerate(access.indices):
        if other_axis != axis and isinstance(ix, IntLiteral):
            raise LoweringError(
                f"constant indices are only supported on direct factors, found in {access}"
            )

    index_subscripts = [ix.name for ix in index_access.indices if isinstance(ix, IndexVar)]
    subscripts: list[str] = []
    for other_axis, ix in enumerate(access.indices):
        if other_axis == axis:
            subscripts.extend(index_subscripts)
        elif isinstance(ix, IndexVar):
            subscripts.append(ix.name)

    gathered = 1
    for var in subscripts:
        gathered *= info.extents[var]
    return FactorPlan(
        access=access,
        subscripts=subscripts,
        gather_index=index_access.tensor,
        gather_axis=axis,
        gathered_elements=gathered,
    )


def _analyse_output(statement: EinsumStatement, info: ProgramInfo):
    """Derive output subscripts and the scatter configuration from the LHS."""
    lhs = statement.lhs
    indirect_axes = [axis for axis, ix in enumerate(lhs.indices) if isinstance(ix, TensorAccess)]
    if len(indirect_axes) > 1:
        raise LoweringError(
            f"output {lhs} scatters along {len(indirect_axes)} axes; only one indirect output "
            "axis is supported (as in all kernels evaluated in the paper)"
        )

    output_subscripts: list[str] = []
    scatter_index: str | None = None
    scatter_dim: int | None = None
    scatter_index_subscripts: list[str] = []
    for axis, ix in enumerate(lhs.indices):
        if isinstance(ix, IndexVar):
            output_subscripts.append(ix.name)
        elif isinstance(ix, TensorAccess):
            scatter_index = ix.tensor
            scatter_dim = axis
            scatter_index_subscripts = [
                v.name for v in ix.indices if isinstance(v, IndexVar)
            ]
            output_subscripts.extend(scatter_index_subscripts)
        else:
            raise LoweringError(f"constant indices are not supported on the output {lhs}")
    return output_subscripts, scatter_index, scatter_dim, scatter_index_subscripts


# ---------------------------------------------------------------------------
# The contraction's equation
# ---------------------------------------------------------------------------
def _letters_for(variables: list[str]) -> dict[str, str]:
    pool = string.ascii_lowercase + string.ascii_uppercase
    if len(variables) > len(pool):
        raise LoweringError(f"too many index variables ({len(variables)}) for einsum letters")
    return {var: pool[i] for i, var in enumerate(variables)}


def plan_insum(
    expression: str | EinsumStatement,
    tensors: dict[str, np.ndarray],
    check_bounds: bool = True,
) -> InsumPlan:
    """Validate and analyse an indirect Einsum into its gather / einsum / scatter plan.

    Parameters
    ----------
    expression:
        The indirect Einsum, as a string or a pre-parsed statement.
    tensors:
        The operand arrays (shapes and dtypes drive extent inference).
    check_bounds:
        Validate that index-tensor values are in range.

    Returns
    -------
    InsumPlan
        The structural information the backend needs for fusion, cost
        modelling and compiling the executor.
    """
    statement = expression if isinstance(expression, EinsumStatement) else parse_einsum(expression)
    info = validate(statement, tensors, check_bounds=check_bounds)

    factors = [_analyse_factor(access, info) for access in statement.rhs.factors]
    output_subscripts, scatter_index, scatter_dim, scatter_subscripts = _analyse_output(
        statement, info
    )

    letters = _letters_for(info.loop_vars)
    inputs_spec = ",".join("".join(letters[v] for v in f.subscripts) for f in factors)
    output_spec = "".join(letters[v] for v in output_subscripts)
    equation = f"{inputs_spec}->{output_spec}"

    return InsumPlan(
        statement=statement,
        info=info,
        factors=factors,
        einsum_equation=equation,
        output_subscripts=output_subscripts,
        scatter_index=scatter_index,
        scatter_dim=scatter_dim,
        scatter_index_subscripts=scatter_subscripts,
        value_itemsize=np.result_type(
            *(np.asarray(tensors[f.access.tensor]) for f in factors)
        ).itemsize,
    )
