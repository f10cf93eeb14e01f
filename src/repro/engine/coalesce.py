"""Same-plan request coalescing: many requests, one widened Einsum.

A serving queue routinely holds many requests that differ **only in their
values**: the same logical expression, the same sparse pattern (often the
very same format instance), fresh dense operands.  Executing them one by
one pays the frontend (rewrite, validation, cache lookup) and a small
kernel launch per request.  Coalescing executes a whole group as a single
*widened* Einsum over a :class:`~repro.runtime.stacked.StackedSparse`
operand instead::

    C[m,n] += A[m,k] * B[k,n]          # k same-pattern requests
    ->  C[s,m,n] += A[s,m,k] * B[s,k,n]   # one stacked execution

The helpers here are the value-free plumbing of
:class:`~repro.runtime.server.InsumServer`: :func:`coalesce_key` gives requests
equal keys exactly when they stack without inspecting a metadata value,
:func:`widen_expression` prepends the stack index to every access,
:func:`stack_group` builds a group's widened operands (zero-padded to a fixed
stack size, so every coalesced execution of an expression shares one plan) and
:func:`split_results` slices the widened output back per request.
"""

from __future__ import annotations

from typing import Any, NamedTuple, Sequence

import numpy as np

from repro.core.einsum.ast import EinsumStatement, IndexVar, Product, TensorAccess
from repro.formats.base import SparseFormat


def _pick_stack_var(statement: EinsumStatement) -> str:
    """A fresh index-variable name not colliding with the statement's names."""
    used = set(statement.index_var_names()) | set(statement.tensor_names())
    return next(name for name in ("s", *(f"s{n}" for n in range(len(used)))) if name not in used)


def widen_expression(statement: EinsumStatement) -> tuple[str, str]:
    """Widen a logical statement with a leading stack index on every access.

    Returns ``(widened_expression, stack_var)``.  The statement must be
    *logical* (plain index variables only); the caller guarantees this via
    :func:`coalesce_key`.
    """
    stack = _pick_stack_var(statement)
    stack_var = IndexVar(stack)

    def widen(access: TensorAccess) -> TensorAccess:
        return TensorAccess(tensor=access.tensor, indices=(stack_var, *access.indices))

    widened = EinsumStatement(
        lhs=widen(statement.lhs),
        rhs=Product(factors=tuple(widen(f) for f in statement.rhs.factors)),
        accumulate=statement.accumulate,
    )
    return str(widened), stack


class CoalesceTicket(NamedTuple):
    """One request's coalescing analysis: its group ``key`` (requests with
    equal keys may stack) and the operand name of its sparse factor."""

    key: tuple
    sparse_name: str


def coalesce_key(
    expression: str,
    statement: EinsumStatement | None,
    logical: bool,
    operands: dict[str, Any],
) -> CoalesceTicket | None:
    """Group key for one request, or ``None`` when it cannot coalesce.

    A request is coalescible when the expression is logical, the output
    operand is not bound (no caller-provided accumulation base), exactly
    one operand is a fixed-length :class:`SparseFormat` (not itself a
    stack), and every other operand is a plain array.  The key combines
    the expression, the sparse operand's pattern fingerprint — equal only
    for operands sharing the same live metadata arrays — and each dense
    operand's shape/dtype signature.

    Parameters
    ----------
    expression:
        The request's expression string.
    statement:
        The parsed statement (``None`` skips coalescing).
    logical:
        Whether the expression is free of indirect accesses.
    operands:
        The request's operand mapping.
    """
    if not logical or statement is None:
        return None
    if statement.lhs.tensor in operands:
        return None
    sparse_names = [
        name for name, value in operands.items() if isinstance(value, SparseFormat)
    ]
    if len(sparse_names) != 1:
        return None
    sparse_name = sparse_names[0]
    sparse = operands[sparse_name]
    if not sparse.fixed_length or sparse.format_name == "StackedSparse":
        return None
    rhs_names = {f.tensor for f in statement.rhs.factors}
    if sparse_name not in rhs_names:
        return None
    dense_sig = []
    for name in sorted(operands):
        if name == sparse_name:
            continue
        value = operands[name]
        if isinstance(value, SparseFormat):
            return None
        arr = np.asarray(value)
        dense_sig.append((name, arr.shape, arr.dtype.str))
    try:
        fingerprint = sparse.fingerprint()
    except Exception:  # noqa: BLE001 — a format without tensors() just opts out
        return None
    key = (expression, sparse_name, fingerprint, tuple(dense_sig))
    return CoalesceTicket(key=key, sparse_name=sparse_name)


def stack_group(
    group: Sequence[dict[str, Any]],
    sparse_name: str,
    pad_to: int,
) -> dict[str, Any]:
    """Stack a group of same-key operand dicts into one widened operand set.

    The sparse operand becomes a :class:`StackedSparse` over the shared
    pattern; every dense operand is stacked along a new leading axis.
    Both are zero-padded to exactly ``pad_to`` items so every coalesced
    execution of an expression presents one tensor signature to the plan
    cache (pad items contribute zero and their outputs are discarded).

    Parameters
    ----------
    group:
        Operand dicts of the grouped requests (length >= 1).
    sparse_name:
        Name of the sparse operand (same in every dict, by key equality).
    pad_to:
        Stack size to pad to; must be >= ``len(group)``.
    """
    from repro.runtime.stacked import StackedSparse

    count = len(group)
    if pad_to < count:
        raise ValueError(f"pad_to={pad_to} smaller than the group ({count})")

    def stack_padded(items: list[np.ndarray]) -> np.ndarray:
        out = np.zeros((pad_to,) + items[0].shape, dtype=np.result_type(*items))
        np.stack(items, out=out[:count])
        return out

    first_sparse: SparseFormat = group[0][sparse_name]
    values = [operands[sparse_name].tensors("_")["_V"] for operands in group]
    stacked: dict[str, Any] = {sparse_name: StackedSparse(first_sparse, stack_padded(values))}

    for name in group[0]:
        if name == sparse_name:
            continue
        stacked[name] = stack_padded([np.asarray(operands[name]) for operands in group])
    return stacked


def split_results(batched: np.ndarray, count: int) -> list[np.ndarray]:
    """Per-request outputs from a widened result (pad slots dropped).

    Each slice is copied out so the (padded) batch buffer is not kept
    alive by the returned views.
    """
    return [np.array(batched[position]) for position in range(count)]
