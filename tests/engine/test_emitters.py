"""A differential net over both emitters of :class:`SpecializedKernel`.

The step list and the emitted C loop nest (:mod:`repro.engine.emit`) lower one
plan; this module runs every plan family that has a loop nest through both —
the SpMM family (gather–scale–accumulate) and the dense-reduction families
(sparse convolution, the tensor products, the block formats: a register tile)
— emitter x plan x dtype x shape x output — against oracles written with plain
``np.einsum`` / ``np.add.at`` / a sequential Python loop, none of which imports
anything from ``repro.engine``.  Seeds are fixed: this is the narrow, always-on
half of the differential suite (ROADMAP item 4).
"""

import hashlib
import itertools
import multiprocessing
import os
import stat
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from test_compiled_kernel import KERNEL_INDIRECT_PLANS, lowered, step_text

from repro import SparseEinsum, clear_plan_cache, insum
from repro.core.einsum.ast import IndexVar, IntLiteral
from repro.core.einsum.parser import parse_einsum
from repro.core.inductor import InductorConfig
from repro.core.insum import fresh_output, plan_insum
from repro.engine import emit
from repro.engine.specialize import SpecializedKernel
from repro.errors import IndexOutOfBoundsError
from repro.formats import COO, ELL, BlockCOO, BlockGroupCOO, GroupCOO
from repro.runtime.stacked import StackedSparse

SPMM, SPMV = "C[m,n] += A[m,k] * B[k,n]", "y[m] += A[m,k] * x[k]"
STACKED, STACKED_PER_ITEM = "C[s,m,n] += A[s,m,k] * B[k,n]", "C[s,m,n] += A[s,m,k] * B[s,k,n]"
COO_SPMM = "C[AM[p],n] += AV[p] * B[AK[p],n]"
GROUPCOO_SPMM = "C[AM[p],n] += AV[p,q] * B[AK[p,q],n]"
CONV = "Out[MAPX[p,q],m] += MAPV[p,q] * In[MAPY[p,q],c] * Weight[MAPZ[p],c,m]"
PRODUCT = "Z[b,CGI[p,q],w] += CGV[p,q] * X[b,CGJ[p,q],u] * Y[b,CGK[p,q]] * W[b,CGL[p],u,w]"
COO_PRODUCT = "Z[b,CGI[p],w] += CGV[p] * X[b,CGJ[p],u] * Y[b,CGK[p]] * W[b,CGL[p],u,w]"
BLOCKCOO = "C[AM[p],bm,n] += AV[p,bm,bk] * B[AK[p],bk,n]"
BLOCK = "C[AM[p],bm,n] += AV[p,q,bm,bk] * B[AK[p,q],bk,n]"
DTYPES = [np.float32, np.float64, np.int64, np.complex128]
EMITTED_DTYPES = (np.float32, np.float64)


# ---------------------------------------------------------------------------
# Which emitter runs, and a count of the calls the C one took
# ---------------------------------------------------------------------------
@pytest.fixture(params=["steps", "C"])
def emitter(request, monkeypatch):
    """Run a test under each emitter; ``calls`` counts emitted executions."""
    calls = []
    if request.param == "steps":
        request.getfixturevalue("steps_only")
    else:
        clear_plan_cache()
        probe = np.zeros(1)
        plan = plan_insum("y[i] += a[i] * b[i]", {"y": probe, "a": probe, "b": probe})
        if not isinstance(SpecializedKernel.build(plan).emitted, emit.Emitted):
            pytest.skip("no usable C compiler on this machine")
        run = emit.Emitted.__call__

        def counted(self, result, operands, pointers=None):
            calls.append(result.dtype)
            return run(self, result, operands, pointers)

        monkeypatch.setattr(emit.Emitted, "__call__", counted)
    yield request.param, calls
    clear_plan_cache()


def only_c(test):
    """Run ``test`` under the C emitter only (skipped where there is no compiler)."""
    return pytest.mark.parametrize("emitter", ["C"], indirect=True)(test)


# ---------------------------------------------------------------------------
# Inputs: integer-valued (exact under every order) or normals; fixed patterns
# ---------------------------------------------------------------------------
def draw(rng, dtype, integer=True):
    def values(*shape):
        array = rng.standard_normal(shape)
        if np.dtype(dtype).kind == "c":
            array = array + 1j * rng.standard_normal(shape)
        array = array * 4.0
        if integer and array.dtype.kind == "c":
            array = np.round(array.real) + 1j * np.round(array.imag)
        elif integer:
            array = np.round(array)
        return array.astype(dtype)

    return values


def full_row_pattern(rows=6, cols=5):
    """One full row beside singleton rows."""
    mask = np.zeros((rows, cols), dtype=bool)
    mask[1] = True
    mask[np.arange(rows), np.arange(rows) % cols] = True
    return mask


#: ``(name, pattern, N)``: nnz = 0; a full row beside singleton rows; N = 1 and
#: N not a multiple of any vector width; extent-1 axes.
SHAPES = [
    ("nnz=0", np.zeros((6, 5), dtype=bool), 3),
    ("full-row/N=7", full_row_pattern(), 7),
    ("full-row/N=1", full_row_pattern(), 1),
    ("1x1", np.ones((1, 1), dtype=bool), 1),
    ("one-column", np.ones((6, 1), dtype=bool), 13),
    ("one-row", np.ones((1, 5), dtype=bool), 2),
]
BUILD = {
    "ell": ELL.from_dense,
    "groupcoo": lambda dense: GroupCOO.from_dense(dense, group_size=2),
    "coo": COO.from_dense,
}
#: ``family -> (expression, stack depth, per-item dense operand, format)``.
FAMILIES = {
    "spmm/ell": (SPMM, 0, False, "ell"),
    "spmm/groupcoo": (SPMM, 0, False, "groupcoo"),
    "spmm/coo": (SPMM, 0, False, "coo"),
    "stacked/shared": (STACKED, 3, False, "groupcoo"),
    "stacked/per-item": (STACKED_PER_ITEM, 3, True, "coo"),
    "spmv/ell": (SPMV, 0, False, "ell"),
    "spmv/coo": (SPMV, 0, False, "coo"),
}


def problem(family, pattern, n_cols, values):
    """``(expression, operands, dense oracle inputs)`` of one family on one pattern."""
    expression, stack, per_item, fmt = FAMILIES[family]
    rows, cols = pattern.shape
    if stack:
        dense = np.where(pattern[None], values(stack, rows, cols), 0)
        sparse = StackedSparse.from_dense(dense, {"groupcoo": GroupCOO, "coo": COO}[fmt])
        rhs = values(stack, cols, n_cols) if per_item else values(cols, n_cols)
        oracle = np.einsum("smk,skn->smn" if per_item else "smk,kn->smn", dense, rhs)
        return expression, {"A": sparse, "B": rhs}, oracle
    dense = np.where(pattern, values(rows, cols), 0)
    if expression == SPMV:
        x = values(cols)
        return expression, {"A": BUILD[fmt](dense), "x": x}, np.einsum("mk,k->m", dense, x)
    rhs = values(cols, n_cols)
    return expression, {"A": BUILD[fmt](dense), "B": rhs}, np.einsum("mk,kn->mn", dense, rhs)


#: The plans with a dense reduction, as the kernel classes, the block formats and
#: a stacked operand (``test_stacked_equals_per_item...`` checks the spelling)
#: lower them: ``family -> (expression, shapes(P, R, N, K))`` for ``P`` groups
#: (0: nnz = 0), row extent ``R``, vector extent ``N`` and reduction extent ``K``.
#: An index tensor's entry is ``(its shape, the extent it indexes)``.
DENSE_FAMILIES = {
    "conv": (CONV, lambda P, R, N, K: {
        "Out": (9, N), "MAPX": ((P, R), 9), "MAPY": ((P, R), 7), "MAPZ": ((P,), 5),
        "MAPV": (P, R), "In": (7, K), "Weight": (5, K, N)}),
    "product": (PRODUCT, lambda P, R, N, K: {
        "Z": (3, 6, N), "CGI": ((P, R), 6), "CGJ": ((P, R), 5), "CGK": ((P, R), 4),
        "CGL": ((P,), 7), "CGV": (P, R), "X": (3, 5, K), "Y": (3, 4), "W": (3, 7, K, N)}),
    "product/coo": (COO_PRODUCT, lambda P, R, N, K: {
        "Z": (3, 6, N), "CGI": ((P,), 6), "CGJ": ((P,), 5), "CGK": ((P,), 4),
        "CGL": ((P,), 7), "CGV": (P,), "X": (3, 5, K), "Y": (3, 4), "W": (3, 7, K, N)}),
    "blockcoo": (BLOCKCOO, lambda P, R, N, K: {
        "C": (4, R, N), "AM": ((P,), 4), "AK": ((P,), 3), "AV": (P, R, K), "B": (3, K, N)}),
    "blockgroupcoo": (BLOCK, lambda P, R, N, K: {
        "C": (4, R, N), "AM": ((P,), 4), "AK": ((P, 2), 3), "AV": (P, 2, R, K), "B": (3, K, N)}),
    "stacked/blockcoo": (
        "C[s,AM[p],bm,n] += AV[s,p,bm,bk] * B[AK[p],bk,n]", lambda P, R, N, K: {
            "C": (2, 4, R, N), "AM": ((P,), 4), "AK": ((P,), 3), "AV": (2, P, R, K),
            "B": (3, K, N)}),
    "stacked/blockcoo/per-item": (
        "C[s,AM[p],bm,n] += AV[s,p,bm,bk] * B[s,AK[p],bk,n]", lambda P, R, N, K: {
            "C": (2, 4, R, N), "AM": ((P,), 4), "AK": ((P,), 3), "AV": (2, P, R, K),
            "B": (2, 3, K, N)}),
    "stacked/blockgroupcoo": (
        "C[s,AM[p],bm,n] += AV[s,p,q,bm,bk] * B[AK[p,q],bk,n]", lambda P, R, N, K: {
            "C": (2, 4, R, N), "AM": ((P,), 4), "AK": ((P, 2), 3), "AV": (2, P, 2, R, K),
            "B": (3, K, N)}),
    "stacked/blockgroupcoo/per-item": (
        "C[s,AM[p],bm,n] += AV[s,p,q,bm,bk] * B[s,AK[p,q],bk,n]", lambda P, R, N, K: {
            "C": (2, 4, R, N), "AM": ((P,), 4), "AK": ((P, 2), 3), "AV": (2, P, 2, R, K),
            "B": (2, 3, K, N)}),
}  # fmt: skip
#: ``(name, (P, R, N, K))``: every instance of the register tile — rows 4, 2
#: and 1 (R of 1, 2, 3, 5, 7), vectors 4, 2, 1 and the scalar lanes at any
#: vector width (N of 1, 7, 33, 113) — a reduction of extent 1, and nnz = 0.
DENSE_SHAPES = [
    ("nnz=0", (0, 3, 7, 2)),
    ("R1/N1/K1", (3, 1, 1, 1)),
    ("R2/N7", (3, 2, 7, 4)),
    ("R3/N33/K1", (4, 3, 33, 1)),
    ("R5/N33", (3, 5, 33, 3)),
    ("R7/N113", (2, 7, 113, 2)),
]


def dense_tensors(family, shape, values, rng):
    """``(expression, tensors)`` of one dense-reduction family; the first group
    is all padding (zero values behind index 0), the output is bound to zeros."""
    expression, shapes = DENSE_FAMILIES[family]
    tensors = {
        name: rng.integers(0, spec[1], size=spec[0]) if isinstance(spec[0], tuple)
        else values(*spec)
        for name, spec in shapes(*shape).items()
    }  # fmt: skip
    statement = parse_einsum(expression)
    stored = statement.rhs.factors[0]
    group = [str(ix) for ix in stored.indices].index("p")
    np.moveaxis(tensors[stored.tensor], group, 0)[:1] = 0
    for name, spec in shapes(*shape).items():
        if isinstance(spec[0], tuple):
            tensors[name][:1] = 0
    tensors[statement.lhs.tensor] = np.zeros_like(tensors[statement.lhs.tensor])
    return expression, tensors


def extents_of(statement, arrays):
    """The extent of every loop variable: the axis it indexes directly."""
    extents = {}
    accesses = statement.all_accesses()
    for access in accesses + [nested for a in accesses for nested in a.nested_accesses()]:
        for axis, ix in enumerate(access.indices):
            if isinstance(ix, IndexVar):
                extents[ix.name] = arrays[access.tensor].shape[axis]
    return extents


def oracle(expression, tensors):
    """The statement with ``np.einsum`` and ``np.add.at`` in float64: every
    factor gathered over its own variables, contracted to the output variables,
    then scattered through the left-hand side."""
    statement = parse_einsum(expression)
    arrays = {name: np.asarray(value) for name, value in tensors.items()}
    extents = extents_of(statement, arrays)
    letter = {var: chr(ord("a") + n) for n, var in enumerate(extents)}

    def key(access, variables):
        """Index arrays of ``access`` that broadcast over ``variables``."""
        grid = dict(zip(variables, np.ix_(*(np.arange(extents[var]) for var in variables))))
        return tuple(
            grid[ix.name] if isinstance(ix, IndexVar)
            else ix.value if isinstance(ix, IntLiteral)
            else arrays[ix.tensor][key(ix, variables)]
            for ix in access.indices
        )  # fmt: skip

    operands, subscripts = [], []
    for factor in statement.rhs.factors:
        variables = list(dict.fromkeys(var.name for var in factor.index_vars()))
        gathered = arrays[factor.tensor].astype(np.float64)[key(factor, variables)]
        operands.append(np.broadcast_to(gathered, [extents[var] for var in variables]))
        subscripts.append("".join(letter[var] for var in variables))
    out = statement.output_index_vars()
    into = "".join(letter[var] for var in out)
    partial = np.einsum(",".join(subscripts) + "->" + into, *operands)
    result = arrays[statement.lhs.tensor].astype(np.float64)
    np.add.at(result, key(statement.lhs, out), partial)
    return result


# ---------------------------------------------------------------------------
# (a) emitter x plan x dtype x shape x output, integer-valued data: exact
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
@pytest.mark.parametrize("family", FAMILIES)
def test_every_family_dtype_shape_and_output_matches_the_dense_oracle(emitter, family, dtype):
    which, calls = emitter
    rng = np.random.default_rng(11)
    values = draw(rng, dtype)
    for name, pattern, n_cols in SHAPES:
        expression, operands, product = problem(family, pattern, n_cols, values)
        output = parse_einsum(expression).lhs.tensor
        base = values(*product.shape)
        outputs = {
            "unbound": (expression, {}, product),
            "bound": (expression, {output: base}, base + product),
            "assign": (expression.replace("+=", "="), {output: base}, product),
        }
        for kind, (statement, bound, expected) in outputs.items():
            before = len(calls)
            operator = SparseEinsum(statement)
            result = operator(**operands, **bound)
            context = f"{family} {np.dtype(dtype).name} {name} {kind} on {which}"
            # Result dtype = np.result_type of the operands (an empty pattern
            # stores float64 values whatever it was built from).
            stored = operands["A"].tensors("A")["AV"].dtype
            dense = [v for k, v in {**operands, **bound}.items() if k != "A"]
            assert result.dtype == np.result_type(stored, *dense), context
            assert result.shape == expected.shape, context
            np.testing.assert_array_equal(result, expected, err_msg=context)
            # (a narrower value operand is widened to the factors' common dtype)
            took_c = which == "C" and np.result_type(stored, dense[0]) in EMITTED_DTYPES
            assert len(calls) - before == int(took_c), context
            kernel = operator.compiled.specialized
            assert isinstance(kernel.emitted, emit.Emitted if which == "C" else str), context


@pytest.mark.parametrize("dtype", EMITTED_DTYPES, ids=lambda d: np.dtype(d).name)
@pytest.mark.parametrize("family", DENSE_FAMILIES)
def test_every_dense_reduction_family_shape_and_base_matches_the_dense_oracle(
    emitter, family, dtype
):
    which, calls = emitter
    rng = np.random.default_rng(31)
    values = draw(rng, dtype)
    other = np.float64 if dtype == np.float32 else np.float32
    for name, shape in DENSE_SHAPES:
        expression, tensors = dense_tensors(family, shape, values, rng)
        output = parse_einsum(expression).lhs.tensor
        extent = tensors[output].shape
        bases = {
            "zero": fresh_output(extent, dtype),
            "non-zero": values(*extent),
            "promoted": values(*extent).astype(other),
        }
        for kind, base in bases.items():
            context = f"{family} {np.dtype(dtype).name} {name} {kind} base on {which}"
            bound, before = {**tensors, output: base}, len(calls)
            result = insum(expression, **bound)
            assert result.dtype == np.result_type(base, dtype), context
            np.testing.assert_array_equal(result, oracle(expression, bound), err_msg=context)
            assert len(calls) - before == (which == "C"), context
            assert result.flags.writeable and result.flags.c_contiguous and result.base is None


def test_unsorted_coo_with_duplicate_coordinates(emitter):
    """Hand-built arrays: nothing sorted or merged them on the way in."""
    which, calls = emitter
    rng = np.random.default_rng(12)
    rows = np.array([4, 0, 4, 2, 4, 0, 5, 4])
    cols = np.array([1, 3, 1, 0, 2, 3, 4, 1])
    for dtype in DTYPES:
        values = draw(rng, dtype)
        stored, rhs, base = values(rows.size), values(5, 7), values(6, 7)
        expected = base.copy()
        np.add.at(expected, rows, stored[:, None] * rhs[cols])
        result = insum(COO_SPMM, C=base, AV=stored, AM=rows, AK=cols, B=rhs)
        np.testing.assert_array_equal(result, expected)
    assert len(calls) == (2 if which == "C" else 0)


# ---------------------------------------------------------------------------
# (b) float normals: the emitted loop is a sequential multiply-then-add loop,
#     and a stacked execution is its per-item ones — bit for bit
# ---------------------------------------------------------------------------
def rounded(value, dtype):
    """The rational ``value`` rounded once to the nearest ``dtype`` (ties to
    even): a fused multiply-add's one rounding, never twice through float64."""
    info, value = np.finfo(dtype), Fraction(value)
    if not value:
        return np.dtype(dtype).type(0)
    exponent = abs(value.numerator).bit_length() - value.denominator.bit_length()
    exponent -= abs(value) < Fraction(2) ** exponent  # 2**exponent <= |value|
    quantum = Fraction(2) ** (max(exponent, info.minexp) - info.nmant)
    return np.dtype(dtype).type(float(round(value / quantum) * quantum))


def sequential(expression, tensors, per_update=False):
    """The statement as a storage-order Python loop in the operands' dtype:
    one multiply per factor, then one add, per point (no fused multiply-add).
    ``per_update`` is the order of a dense reduction: each update's reduction
    is summed from zero — the product of every factor but the last, then one
    fused multiply-add of the last into the sum, exact and rounded once — and
    then that sum is added to the output."""
    statement = parse_einsum(expression)
    arrays = {name: np.asarray(value) for name, value in tensors.items()}
    out = statement.lhs
    result = arrays[out.tensor].copy()

    def at(access, env):
        coords = []
        for ix in access.indices:
            if isinstance(ix, IndexVar):
                coords.append(env[ix.name])
            elif isinstance(ix, IntLiteral):
                coords.append(ix.value)
            else:
                coords.append(int(arrays[ix.tensor][at(ix, env)]))
        return tuple(coords)

    extents = extents_of(statement, arrays)

    def points(variables):
        for point in itertools.product(*(range(extents[var]) for var in variables)):
            yield dict(zip(variables, point))

    def term(env, factors=statement.rhs.factors):
        value = arrays[factors[0].tensor][at(factors[0], env)]
        for factor in factors[1:]:
            value = value * arrays[factor.tensor][at(factor, env)]
        return value

    def fused(total, env):
        """``total + prefix * last`` with one rounding to ``total``'s dtype."""
        *factors, last = statement.rhs.factors
        prefix, last = term(env, factors), arrays[last.tensor][at(last, env)]
        exact = Fraction(float(total)) + Fraction(float(prefix)) * Fraction(float(last))
        return rounded(exact, total.dtype)

    outer, inner = statement.output_index_vars(), statement.reduction_index_vars()
    if not per_update:
        outer = [*outer, *inner]
    zero = np.result_type(*(arrays[factor.tensor] for factor in statement.rhs.factors)).type(0)
    for env in points(outer):
        if per_update:
            total = zero
            for reduction in points(inner):
                total = fused(total, {**env, **reduction})
        else:
            total = term(env)
        result[at(out, env)] = result[at(out, env)] + total
    return result


def indirect(expression, operands, base):
    """``(indirect expression, tensors)`` a logical call executes, with ``base`` bound."""
    statement = parse_einsum(expression)
    (factor,) = [f for f in statement.rhs.factors if f.tensor == "A"]
    dense = {name: value for name, value in operands.items() if name != "A"}
    dense[statement.lhs.tensor] = base
    return lowered(expression, "A", operands["A"], [str(ix) for ix in factor.indices], **dense)


@only_c
@pytest.mark.parametrize("dtype", EMITTED_DTYPES, ids=lambda d: np.dtype(d).name)
@pytest.mark.parametrize("family", FAMILIES)
def test_the_emitted_loop_is_a_sequential_multiply_then_add_loop(emitter, family, dtype):
    _, calls = emitter
    rng = np.random.default_rng(13)
    values = draw(rng, dtype, integer=False)
    expression, operands, product = problem(family, full_row_pattern(), 7, values)
    base = values(*product.shape)
    statement, tensors = indirect(expression, operands, base)
    calls.clear()
    result = insum(statement, **tensors)
    assert len(calls) == 1
    assert result.tobytes() == sequential(statement, tensors).tobytes()
    np.testing.assert_allclose(result.reshape(base.shape), base + product, rtol=1e-4, atol=1e-4)


@only_c
@pytest.mark.parametrize("dtype", EMITTED_DTYPES, ids=lambda d: np.dtype(d).name)
@pytest.mark.parametrize("family", DENSE_FAMILIES)
def test_a_dense_reduction_is_summed_per_update_from_zero_then_added(emitter, family, dtype):
    """The order and rounding the module docstrings state — each update one fused
    multiply-add — whatever the tile position, the row instance and the vector
    width (19 = vectors and scalar lanes at any)."""
    _, calls = emitter
    rng = np.random.default_rng(32)
    values = draw(rng, dtype, integer=False)
    expression, tensors = dense_tensors(family, (2, 3, 19, 3), values, rng)
    output = parse_einsum(expression).lhs.tensor
    tensors[output] = values(*tensors[output].shape)
    result = insum(expression, **tensors)
    assert len(calls) == 1
    assert result.tobytes() == sequential(expression, tensors, per_update=True).tobytes()
    # The step list's BLAS dot differs by reassociation only.
    steps = SpecializedKernel.build(plan_insum(expression, tensors), window_steps=2).run(tensors)
    np.testing.assert_allclose(result, steps, rtol=1e-4, atol=1e-4)


def top_level(text, separator):
    """``text`` split at each ``separator`` outside brackets and parentheses."""
    parts, depth, start = [], 0, 0
    for at, char in enumerate(text):
        depth += (char in "([") - (char in ")]")
        if not depth and text.startswith(separator, at):
            parts.append(text[start:at])
            start = at + len(separator)
    return [*parts, text[start:]]


@pytest.mark.parametrize("family", DENSE_FAMILIES)
def test_every_dense_reduction_source_spells_the_fused_update(family):
    """The tile's one update is ``FMA(vec, L, acc[r][v], prefix, last)``: the
    product of every factor but the last, in statement order, fused with the
    last into the accumulator; the function is ``FUSED`` and the store adds."""
    rng = np.random.default_rng(34)
    expression, tensors = dense_tensors(family, (2, 3, 19, 3), draw(rng, np.float64), rng)
    kernel = SpecializedKernel.build(plan_insum(expression, tensors), window_steps=1)
    inputs = kernel._program.inputs
    source, _, _ = emit._source(kernel.plan.statement, tuple(inputs))
    head, function = source.split("\nFUSED int64_t KERNEL(")
    tile = head.split("#define TILE(R, NV, vec, L) {")[1]
    updates = [line.strip() for line in tile.splitlines() if "acc[r][v]" in line]
    assert len(updates) == 2 and updates[1].endswith("+= acc[r][v]; \\")
    assert updates[0].startswith("FMA(") and updates[0].endswith(") \\") and "acc" not in function
    vec, lanes, acc, prefix, last = top_level(updates[0][len("FMA(") : -len(") \\")], ", ")
    assert (vec, lanes, acc) == ("vec", "L", "acc[r][v]")
    factors, terms = parse_einsum(expression).rhs.factors, [*top_level(prefix, " * "), last]
    assert len(terms) == len(factors) and last.startswith("*(const vec *)&")
    for position, (factor, term) in enumerate(zip(factors, terms)):
        slot = f"T{inputs.index(factor.tensor)}["  # loaded here, or hoisted as f<position>
        assert term.startswith((slot, f"*(const vec *)&{slot}")) or term == f"f{position}"


#: Runs of equal output rows (extent 6) across COO entries and GroupCOO groups:
#: unsorted, with duplicates, and with one row named both ``k`` and ``k - 6``.
RUN_ROWS = np.array([3, 3, -3, 3, 0, 0, 5, -1, 3, 1, 1, -5, 1, 2])
RUN_GROUPS = np.array([3, -3, 3, 0, 5, -1, 1, 1])
#: One tile, the largest tiles and every kind of remainder, at either dtype.
RUN_WIDTHS = [1, 2, 7, 15, 16, 17, 33, 64, 128, 129]


@only_c
@pytest.mark.parametrize("dtype", EMITTED_DTYPES, ids=lambda d: np.dtype(d).name)
@pytest.mark.parametrize("n_cols", RUN_WIDTHS)
def test_a_run_into_one_row_is_the_sequential_loop_bit_for_bit(emitter, n_cols, dtype):
    """Each element of a run's row starts from its stored (non-zero) value and
    takes the run's additions in storage order, whatever the tile width."""
    _, calls = emitter
    rng = np.random.default_rng(35)
    values = draw(rng, dtype, integer=False)
    columns = rng.integers(0, 5, size=RUN_ROWS.size)
    columns[1] = columns[0]  # a duplicate coordinate inside a run
    entries, rhs = {"AV": values(RUN_ROWS.size), "AM": RUN_ROWS, "AK": columns}, values(5, n_cols)
    groups = {"AV": values(RUN_GROUPS.size, 2), "AM": RUN_GROUPS}
    groups["AK"] = rng.integers(-5, 5, size=(RUN_GROUPS.size, 2))
    per_item = {**entries, "AV": values(2, RUN_ROWS.size), "B": values(2, 5, n_cols)}
    cases = [
        (COO_SPMM, {**entries, "B": rhs, "C": values(6, n_cols)}),
        (GROUPCOO_SPMM, {**groups, "B": rhs, "C": values(6, n_cols)}),
        ("C[s,AM[p],n] += AV[s,p] * B[s,AK[p],n]", {**per_item, "C": values(2, 6, n_cols)}),
        ("y[AM[p]] += AV[p] * x[AK[p]]", {**entries, "x": values(5), "y": values(6)}),
    ]
    calls.clear()
    for expression, tensors in cases:
        result = insum(expression, **tensors)
        assert result.tobytes() == sequential(expression, tensors).tobytes(), expression
    assert len(calls) == len(cases)


STACKABLE = {
    "ell": (ELL, {}),
    "groupcoo": (GroupCOO, {}),
    "coo": (COO, {}),
    "blockcoo": (BlockCOO, {"block_shape": (4, 8)}),
    "blockgroupcoo": (BlockGroupCOO, {"block_shape": (8, 4)}),
}


@only_c
@pytest.mark.parametrize("dtype", EMITTED_DTYPES, ids=lambda d: np.dtype(d).name)
@pytest.mark.parametrize("fmt", STACKABLE)
def test_stacked_equals_per_item_bit_for_bit_on_float_normals(emitter, fmt, dtype):
    _, calls = emitter
    rng = np.random.default_rng(14)
    values = draw(rng, dtype, integer=False)
    mask = rng.random((32, 40)) < 0.3
    dense = np.where(mask[None], values(5, 32, 40), 0).astype(dtype)
    shared, per_item = values(40, 16), values(5, 40, 16)
    factory, how = STACKABLE[fmt]
    stacked = StackedSparse.from_dense(dense, factory, **how)
    forms = (("", STACKED, shared), ("/per-item", STACKED_PER_ITEM, per_item))
    for suffix, expression, rhs in forms:
        operator = SparseEinsum(expression)
        batched = operator(A=stacked, B=rhs)
        singles = [
            SparseEinsum(SPMM)(A=item, B=rhs[position] if rhs.ndim == 3 else rhs)
            for position, item in enumerate(stacked.items())
        ]
        assert batched.tobytes() == np.stack(singles).tobytes()
        if f"stacked/{fmt}{suffix}" in DENSE_FAMILIES:  # spelled as StackedSparse lowers it
            lowered_to = str(operator.compiled.plan.statement)
            assert lowered_to == DENSE_FAMILIES[f"stacked/{fmt}{suffix}"][0]
    assert len(calls) == 2 * (1 + 5)


@only_c
def test_one_process_returns_the_same_bytes_before_and_after_a_thousand_calls(emitter):
    _, calls = emitter
    rng = np.random.default_rng(15)
    values = draw(rng, np.float64, integer=False)
    expression, operands, _ = problem("spmm/groupcoo", full_row_pattern(), 7, values)
    operator = SparseEinsum(expression)
    first = operator(**operands).tobytes()
    assert all(operator(**operands).tobytes() == first for _ in range(1000))
    assert len(calls) == 1001  # the emitter of a plan is fixed when it is built


# ---------------------------------------------------------------------------
# (c) indices out of range: the same exception type, nothing of the caller's touched
# ---------------------------------------------------------------------------
def groupcoo_tensors(rng, dtype=np.float64):
    values = draw(rng, dtype)
    fmt = GroupCOO.from_dense(np.where(full_row_pattern(), values(6, 5), 0), group_size=2)
    tensors = {name: np.array(value) for name, value in fmt.tensors("A").items()}
    return {**tensors, "B": values(5, 7), "C": values(6, 7)}


#: The SpMM-family plans of ``INDEX_TENSORS``: the flat position of a stored slot
#: in the middle of the run of ``full_row_pattern``'s full row (COO entries 1-5,
#: ELL slots 5-9).
MID_RUN = {"spmm/coo": 3, "spmm/ell": 7, "spmv/coo": 3}


def indexed(family, rng):
    """``(expression, tensors, extent by index tensor, the flat position a test
    corrupts)`` with a non-zero base."""
    if family in MID_RUN:
        values = draw(rng, np.float64)
        expression, operands, product = problem(family, full_row_pattern(), 7, values)
        statement, tensors = indirect(expression, operands, values(*product.shape))
        return statement, tensors, {"AM": 6, "AK": 5}, MID_RUN[family]
    if family == "groupcoo":
        return GROUPCOO_SPMM, groupcoo_tensors(rng), {"AK": 5, "AM": 6}, -1
    shape, values = (3, 5, 9, 2), draw(rng, np.float64)
    expression, tensors = dense_tensors(family, shape, values, rng)
    output = parse_einsum(expression).lhs.tensor
    tensors[output] = values(*tensors[output].shape)
    specs = DENSE_FAMILIES[family][1](*shape).items()
    extents = {n: spec[1] for n, spec in specs if isinstance(spec[0], tuple)}
    return expression, tensors, extents, -1


#: Every index tensor by where the loop nest loads it: bound by the outer
#: loops, one per row of a tile (through ``q``), inside a reduction loop, at the
#: start of a run or by a member of one (the SpMM family, a bad value mid-run).
INDEX_TENSORS = [
    ("groupcoo", "AK"), ("groupcoo", "AM"),
    ("spmm/coo", "AM"), ("spmm/coo", "AK"), ("spmm/ell", "AK"), ("spmv/coo", "AM"),
    ("conv", "MAPZ"), ("conv", "MAPX"), ("conv", "MAPY"),
    ("product", "CGL"), ("product", "CGI"), ("product", "CGJ"), ("product", "CGK"),
    ("product/coo", "CGI"), ("product/coo", "CGK"),
    ("blockcoo", "AK"), ("blockgroupcoo", "AM"), ("blockgroupcoo", "AK"),
    ("stacked/blockgroupcoo/per-item", "AK"),
]  # fmt: skip


#: Every way a plan executes: its kernel, and the step list as one window
#: (``backend="eager"``, the unfused schedule).
EXECUTIONS = {
    "kernel": {},
    "eager": {"backend": "eager"},
    "unfused": {"config": InductorConfig.torchinductor_default()},
}


@pytest.mark.parametrize("execution", EXECUTIONS)
@pytest.mark.parametrize("family,index", INDEX_TENSORS)
def test_an_index_out_of_range_raises_the_same_exception_on_both_emitters(
    emitter, family, index, execution
):
    """The executor is the one index check: nothing scans the values before it."""
    how = EXECUTIONS[execution]
    expression, tensors, extents, at = indexed(family, np.random.default_rng(16))
    extent = extents[index]
    good = insum(expression, **how, **tensors)
    for bad in (extent, -extent - 1, 2**40):
        broken = {**tensors, index: tensors[index].copy()}
        broken[index].reshape(-1)[at] = bad
        before = {name: array.tobytes() for name, array in broken.items()}
        with pytest.raises(IndexOutOfBoundsError):
            insum(expression, **how, **broken)
        assert {name: array.tobytes() for name, array in broken.items()} == before
    # A negative index inside [-extent, 0) wraps, as in NumPy, on both emitters —
    # a scatter index too, where the row it names is also addressed from zero.
    wrapped = {**tensors, index: tensors[index].copy()}
    wrapped[index].reshape(-1)[at] -= extent
    np.testing.assert_array_equal(insum(expression, **how, **wrapped), good)


def outcome(expression, tensors):
    """A call's result bytes, or the type of the exception it raised."""
    try:
        return insum(expression, **tensors).tobytes()
    except Exception as error:  # noqa: BLE001 — the outcome under comparison
        return type(error)


@only_c
@pytest.mark.parametrize("index", ["AM", "AK"])
def test_an_index_has_one_outcome_whatever_the_call_history(emitter, index):
    """-1 and 99 in a fresh array, and written in place into one that served two
    good calls: one outcome either way (-1 wraps, 99 raises)."""
    _, calls = emitter
    expression, tensors, extents, at = indexed("spmm/coo", np.random.default_rng(21))
    last = {**tensors, index: tensors[index].copy()}
    last[index].reshape(-1)[at] = extents[index] - 1
    for bad, expected in ((-1, outcome(expression, last)), (99, IndexOutOfBoundsError)):
        fresh, live = ({**tensors, index: tensors[index].copy()} for _ in range(2))
        fresh[index].reshape(-1)[at] = bad
        insum(expression, **live)
        insum(expression, **live)
        live[index].reshape(-1)[at] = bad
        assert outcome(expression, fresh) == outcome(expression, live) == expected
    assert len(calls) == 1 + 2 * 4


def test_an_index_written_into_a_live_array_after_a_good_call(emitter):
    """The emitted loop checks every index it loads on every call, so the write
    is caught.  The step list catches it where it reads the live array (ELL) —
    a scattering plan reads its memoized run-ordered copy and keeps answering
    for the pattern it memoized."""
    which, _ = emitter
    rng = np.random.default_rng(17)
    values = draw(rng, np.float64)
    fmt = ELL.from_dense(np.where(full_row_pattern(), values(6, 5), 0))
    ell = {name: np.array(value) for name, value in fmt.tensors("A").items()}
    ell.update(B=values(5, 7), C=values(6, 7))
    cases = [("C[m,n] += AV[m,q] * B[AK[m,q],n]", ell, "AK")]
    if which == "C":
        cases += [(*indexed(family, rng)[:2], name) for family, name in INDEX_TENSORS]
    for expression, tensors, index in cases:
        good = insum(expression, **tensors)
        np.testing.assert_array_equal(insum(expression, **tensors), good)
        tensors[index].reshape(-1)[0] = 10**6
        before = {name: array.tobytes() for name, array in tensors.items()}
        with pytest.raises(IndexError):
            insum(expression, **tensors)
        assert {name: array.tobytes() for name, array in tensors.items()} == before


# ---------------------------------------------------------------------------
# (d) threads and processes
# ---------------------------------------------------------------------------
@only_c
def test_four_threads_share_one_emitted_kernel(emitter):
    rng = np.random.default_rng(18)
    tensors = groupcoo_tensors(rng)
    kernel = SpecializedKernel.build(plan_insum(GROUPCOO_SPMM, tensors))
    expected = kernel.run(tensors)
    barrier, wrong = threading.Barrier(4), []

    def worker():
        barrier.wait(timeout=30)
        for _ in range(200):
            if kernel.run(tensors).tobytes() != expected.tobytes():
                wrong.append(1)

    threads = [threading.Thread(target=worker) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads) and not wrong


def logging_compiler(tmp_path):
    """A ``$CC`` that appends a line per invocation, then runs the real one."""
    log, script = tmp_path / "cc.log", tmp_path / "cc"
    script.write_text(f'#!/bin/sh\necho run >> "{log}"\nexec cc "$@"\n')
    script.chmod(script.stat().st_mode | stat.S_IXUSR)
    return str(script), log


def child_result(queue):
    """What a worker process computes: the emitter it got and its result's bytes."""
    tensors = groupcoo_tensors(np.random.default_rng(19))
    kernel = SpecializedKernel.build(plan_insum(GROUPCOO_SPMM, tensors))
    queue.put((type(kernel.emitted).__name__, kernel.run(tensors).tobytes()))


@only_c
@pytest.mark.parametrize("method", ["fork", "spawn"])
def test_a_worker_process_loads_the_cached_object(emitter, method, tmp_path, monkeypatch):
    compiler, log = logging_compiler(tmp_path)
    monkeypatch.setenv("CC", compiler)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setattr(emit, "_LOADED", {})
    tensors = groupcoo_tensors(np.random.default_rng(19))
    kernel = SpecializedKernel.build(plan_insum(GROUPCOO_SPMM, tensors))
    assert isinstance(kernel.emitted, emit.Emitted)
    assert log.read_text().count("run") == 1
    if method == "spawn":
        emit._LOADED.clear()  # inherited by a fork only: a spawn worker starts empty anyway
    context = multiprocessing.get_context(method)
    queue = context.Queue()
    process = context.Process(target=child_result, args=(queue,))
    process.start()
    name, data = queue.get(timeout=60)
    process.join(timeout=60)
    assert not process.is_alive() and process.exitcode == 0
    assert name == "Emitted" and data == kernel.run(tensors).tobytes()
    assert log.read_text().count("run") == 1  # nobody compiled again
    objects = list((tmp_path / "cache" / "repro" / "kernels").iterdir())
    assert [path.suffix for path in objects] == [".so"]
    assert stat.S_IMODE((tmp_path / "cache" / "repro" / "kernels").stat().st_mode) == 0o700


# ---------------------------------------------------------------------------
# (e) every fallback: the step list's result, and describe() says why
# ---------------------------------------------------------------------------
def test_a_forced_schedule_is_the_step_list(emitter):
    which, calls = emitter
    tensors = groupcoo_tensors(np.random.default_rng(20))
    plan = plan_insum(GROUPCOO_SPMM, tensors)
    forced, free = SpecializedKernel.build(plan, window_steps=2), SpecializedKernel.build(plan)
    assert forced.emitted == "window_steps forced"
    assert "  emitter: steps (window_steps forced)" in forced.describe().splitlines()
    np.testing.assert_array_equal(forced.run(tensors), free.run(tensors))
    assert len(calls) == (1 if which == "C" else 0)
    if which == "C":
        assert free.describe().splitlines()[1].startswith("  emitter: C")
        assert "int64_t KERNEL(void *const *T, const int64_t *D) {" in free.describe()


@only_c
@pytest.mark.parametrize("broken", ["CC=/bin/false", "no compiler", "cache directory is a file",
                                    "cache directory is not ours alone"])  # fmt: skip
def test_without_a_usable_compiler_or_cache_a_plan_runs_its_steps(
    emitter, broken, tmp_path, monkeypatch
):
    _, calls = emitter
    tensors = groupcoo_tensors(np.random.default_rng(21))
    expected = SpecializedKernel.build(plan_insum(GROUPCOO_SPMM, tensors)).run(tensors)
    calls.clear()
    monkeypatch.setattr(emit, "_LOADED", {})
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    if broken == "CC=/bin/false":
        monkeypatch.setenv("CC", "/bin/false")
        reason = "CalledProcessError"
    elif broken == "no compiler":
        monkeypatch.setenv("CC", "no-such-compiler-anywhere")
        reason = "FileNotFoundError: no C compiler"
    elif broken == "cache directory is a file":
        (tmp_path / "repro").write_text("in the way")
        reason = "Error"
    else:
        (tmp_path / "repro" / "kernels").mkdir(parents=True)
        (tmp_path / "repro" / "kernels").chmod(0o777)
        reason = "PermissionError"
    kernel = SpecializedKernel.build(plan_insum(GROUPCOO_SPMM, tensors))
    assert isinstance(kernel.emitted, str) and reason in kernel.emitted
    assert f"  emitter: steps ({kernel.emitted})" in kernel.describe().splitlines()
    np.testing.assert_array_equal(kernel.run(tensors), expected)
    assert not calls
    # Decided once per process: the same source is not retried.
    assert SpecializedKernel.build(plan_insum(GROUPCOO_SPMM, tensors)).emitted == kernel.emitted


@only_c
def test_a_compiler_without_vector_types_leaves_the_register_tile_on_its_steps(
    emitter, tmp_path, monkeypatch
):
    _, calls = emitter
    script = tmp_path / "cc"
    script.write_text(
        '#!/bin/sh\nunit=$(mktemp)\ncat > "$unit"\n'
        'if grep -q vector_size "$unit"; then rm "$unit"; exit 1; fi\n'
        'cc "$@" < "$unit"\nstatus=$?\nrm "$unit"\nexit $status\n'
    )
    script.chmod(script.stat().st_mode | stat.S_IXUSR)
    monkeypatch.setenv("CC", str(script))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setattr(emit, "_LOADED", {})
    rng = np.random.default_rng(28)
    plain = groupcoo_tensors(rng)
    untiled = SpecializedKernel.build(plan_insum(GROUPCOO_SPMM, plain))
    assert isinstance(untiled.emitted, emit.Emitted)
    expression, tensors = dense_tensors("conv", (3, 5, 9, 2), draw(rng, np.float64), rng)
    kernel = SpecializedKernel.build(plan_insum(expression, tensors))
    assert isinstance(kernel.emitted, str) and "CalledProcessError" in kernel.emitted
    assert f"  emitter: steps ({kernel.emitted})" in kernel.describe().splitlines()
    np.testing.assert_array_equal(kernel.run(tensors), oracle(expression, tensors))
    assert not calls


@only_c
def test_the_bytes_of_a_result_do_not_depend_on_the_vector_width(emitter, tmp_path, monkeypatch):
    """A tiled unit reads the vector width from the compiler's macros, and a run
    loop's tiles are fixed in bytes: built again for SSE2 alone (16-byte
    vectors, no fused multiply-add instruction: the tile takes libm's ``fma``
    per lane) each returns the same bytes."""
    rng, problems = np.random.default_rng(29), {}
    for family in [*DENSE_FAMILIES, *FAMILIES]:
        for dtype in EMITTED_DTYPES:
            values = draw(rng, dtype, integer=False)
            if family in DENSE_FAMILIES:
                expression, tensors = dense_tensors(family, (2, 7, 113, 3), values, rng)
            else:  # 241: every tile of a run at either dtype, and a remainder
                pattern = full_row_pattern()
                expression, operands, product = problem(family, pattern, 241, values)
                expression, tensors = indirect(expression, operands, values(*product.shape))
            problems[family, np.dtype(dtype).name] = expression, tensors

    def build(problem):
        return SpecializedKernel.build(plan_insum(*problem))

    def results():
        # One unit per family (both dtypes): its builds are independent ``cc``
        # processes, so they run side by side before the loop.
        with ThreadPoolExecutor(max_workers=4) as pool:
            list(pool.map(build, {family: p for (family, _), p in problems.items()}.values()))
        taken = {}
        for key, problem in problems.items():
            kernel = build(problem)
            assert isinstance(kernel.emitted, emit.Emitted)
            taken[key] = kernel.run(problem[1]).tobytes()
        return taken

    native = results()
    monkeypatch.setenv("CC", "cc -mno-avx512f -mno-avx")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(emit, "_LOADED", {})
    narrow = results()
    assert narrow == native
    objects = list((tmp_path / "repro" / "kernels").iterdir())
    assert len(objects) == len(DENSE_FAMILIES) + len(FAMILIES)  # built again, under another key


REQUEST = (
    "import sys, numpy as np\n"
    "from repro import SparseEinsum\n"
    "from repro.formats import GroupCOO\n"
    "rng = np.random.default_rng(25)\n"
    "dense = np.where(rng.random((40, 30)) < 0.2, rng.standard_normal((40, 30)), 0.0)\n"
    "operator = SparseEinsum('C[m,n] += A[m,k] * B[k,n]')\n"
    "result = operator(A=GroupCOO.from_dense(dense), B=rng.standard_normal((30, 9)))\n"
    "sys.stdout.buffer.write(result.tobytes())\n"
    "sys.stderr.write(type(operator.compiled.specialized.emitted).__name__)\n"
)


def fresh_interpreter(script=REQUEST, **environment):
    """One request in a new process: ``(result bytes, its emitter's class name)``."""
    environment = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), **environment}
    command = [sys.executable, "-c", script]
    done = subprocess.run(command, env=environment, capture_output=True, check=True, timeout=120)
    return done.stdout, done.stderr.decode()


@only_c
def test_an_object_that_is_truncated_or_not_ours_alone_is_rebuilt_never_loaded(emitter, tmp_path):
    """Each step is a new process: one that already mapped an object keeps it."""
    compiler, log = logging_compiler(tmp_path)
    environment = {"CC": compiler, "XDG_CACHE_HOME": str(tmp_path / "cache")}
    expected = fresh_interpreter(**environment)
    assert expected[1] == "Emitted" and log.read_text().count("run") == 1
    (cached,) = (tmp_path / "cache" / "repro" / "kernels").iterdir()
    assert fresh_interpreter(**environment) == expected
    assert log.read_text().count("run") == 1  # a good object is loaded, not rebuilt
    whole = cached.read_bytes()
    for builds, damage in ((2, whole[: len(whole) // 2]), (3, b"")):
        cached.write_bytes(damage)
        assert fresh_interpreter(**environment) == expected
        assert log.read_text().count("run") == builds and len(cached.read_bytes()) == len(whole)
    cached.chmod(0o777)  # anyone could have swapped it
    assert fresh_interpreter(**environment) == expected
    assert log.read_text().count("run") == 4 and stat.S_IMODE(cached.stat().st_mode) & 0o022 == 0
    # Another compiler binary never loads this one's object.
    other = tmp_path / "other-cc"
    other.write_text(f'#!/bin/sh\necho run >> "{log}"\nexec cc "$@"\n# another build\n')
    other.chmod(0o755)
    assert fresh_interpreter(**{**environment, "CC": str(other)}) == expected
    assert log.read_text().count("run") == 5
    assert len(list((tmp_path / "cache" / "repro" / "kernels").iterdir())) == 2


@only_c
def test_operands_the_loop_cannot_read_in_place(emitter):
    """Non-contiguous and misaligned operands are copied for the call (the bits
    of a result never depend on where an operand lies), read-only ones are
    read; a dtype the loop nest has no instance for runs the steps."""
    _, calls = emitter
    rng = np.random.default_rng(23)
    tensors = groupcoo_tensors(rng, np.float64)
    normal = draw(rng, np.float64, integer=False)
    tensors["B"], tensors["AV"] = normal(5, 7), normal(*tensors["AV"].shape)
    kernel = SpecializedKernel.build(plan_insum(GROUPCOO_SPMM, tensors))
    expected = kernel.run(tensors)
    steps = SpecializedKernel.build(plan_insum(GROUPCOO_SPMM, tensors), window_steps=2).run(tensors)
    np.testing.assert_allclose(expected, steps, rtol=1e-12)

    strided = np.zeros((5, 14))[:, ::2]
    strided[...] = tensors["B"]
    raw = np.zeros(tensors["B"].nbytes + 4, dtype=np.uint8)
    misaligned = raw[4:].view(np.float64).reshape(5, 7)
    misaligned[...] = tensors["B"]
    assert not strided.flags.c_contiguous and not misaligned.flags.aligned
    frozen = {name: array.copy() for name, array in tensors.items()}
    for array in frozen.values():
        array.setflags(write=False)
    calls.clear()
    for variant in ({**tensors, "B": strided}, {**tensors, "B": misaligned}, frozen,
                    {**tensors, "AK": np.asfortranarray(tensors["AK"])}):  # fmt: skip
        assert kernel.run(variant).tobytes() == expected.tobytes()
    assert len(calls) == 4

    for name, dtype in (("AK", np.int32), ("AV", np.complex128)):
        mixed = {**tensors, name: tensors[name].astype(dtype)}
        np.testing.assert_allclose(kernel.run(mixed), expected, rtol=1e-5)
    assert len(calls) == 4  # neither took the loop nest
    # A narrower value operand is widened to the factors' common dtype, exactly.
    narrow = {**tensors, "B": tensors["B"].astype(np.float32)}
    widened = {**tensors, "B": narrow["B"].astype(np.float64)}
    assert kernel.run(narrow).tobytes() == kernel.run(widened).tobytes()
    assert len(calls) == 6 and calls[-2:] == [np.float64, np.float64]
    calls[:] = calls[:4]
    # A base the sum promotes receives the operand-dtype partial in one add.
    single = {name: tensors[name].astype(np.float32) for name in ("AV", "B")}
    single = {**tensors, **single}
    promoted = SpecializedKernel.build(plan_insum(GROUPCOO_SPMM, single)).run(single)
    assert promoted.dtype == np.float64 and len(calls) == 5
    np.testing.assert_allclose(promoted, expected, rtol=1e-4, atol=1e-4)


@only_c
def test_a_float32_map_beside_float64_features_takes_the_loop_nest(emitter):
    """``KernelMap.to_grouped_arrays`` stores ``MAPV`` as float32: widened to the
    factors' float64 it is the all-float64 call, bit for bit."""
    _, calls = emitter
    rng = np.random.default_rng(34)
    values = draw(rng, np.float64, integer=False)
    expression, tensors = dense_tensors("conv", (3, 5, 19, 4), values, rng)
    tensors["MAPV"] = tensors["MAPV"].astype(np.float32)
    kernel = SpecializedKernel.build(plan_insum(expression, tensors))
    mixed = kernel.run(tensors)
    same = kernel.run({**tensors, "MAPV": tensors["MAPV"].astype(np.float64)})
    assert calls == [np.float64, np.float64] and mixed.dtype == np.float64
    assert mixed.tobytes() == same.tobytes()
    for name, dtype in (("MAPV", np.complex128), ("MAPY", np.int32)):
        other = kernel.run({**tensors, name: tensors[name].astype(dtype)})
        np.testing.assert_allclose(other, mixed, rtol=1e-6)
    assert len(calls) == 2  # a complex value operand, an int32 index: the steps


# ---------------------------------------------------------------------------
# (f) the rule: what the emitter leaves alone
# ---------------------------------------------------------------------------
BLOCK_STEPS = """\
specialized: windows of 524288 B over the runs of equal AM[p] ({update} B per update + \
32768 B per run)
  per call:
    t7 = memoized windows over the runs of equal AM (and the indices gathered through, in run order)
  per window:
    span, cut, rows, runs = t7.windows[window]
    t12 = take(AV, cut, axis=0), axis 0 as (runs, -1)
    t13 = AK in run order[span, axis 0], axis 0 as (runs, -1)
    t15 = take(B, t13, axis=0)  # B[AK[p,q],bk,n] -> [p,p',q,bk,n]
    t16 = t12.transpose(0, 3, 1, 2, 4).reshape(runs, 32, -1)
    t17 = t15.reshape(runs, -1, 256)
    t18 = matmul(t16, t17).reshape(runs, 32, 256)
    out[rows] += t18
  per window, all-zero base:
    span, cut, rows, runs = t7.windows[window]
    t12 = take(AV, cut, axis=0), axis 0 as (runs, -1)
    t13 = AK in run order[span, axis 0], axis 0 as (runs, -1)
    t15 = take(B, t13, axis=0)  # B[AK[p,q],bk,n] -> [p,p',q,bk,n]
    t16 = t12.transpose(0, 3, 1, 2, 4).reshape(runs, 32, -1)
    t17 = t15.reshape(runs, -1, 256)
    t18 = matmul(t16, t17).reshape(runs, 32, 256)
    out[rows] = t18"""
#: The two block plans of ``kernel_spmm`` (float32), ``describe()`` recorded at 3814fe4.
BLOCK_PLANS = {
    "block1024@0.1": ((58, 2), BLOCK_STEPS.format(update=73728)),
    "block1024@0.3": ((90, 4), BLOCK_STEPS.format(update=147456)),
}


@pytest.mark.parametrize("name", [*KERNEL_INDIRECT_PLANS, *BLOCK_PLANS])
def test_plans_with_a_dense_reduction_keep_the_parents_steps_byte_for_byte(emitter, name):
    """The step list of the five ``kernel_indirect`` plans and the two block
    plans is the parent's; with a compiler the same plans run the loop nest."""
    which, _ = emitter
    if name in BLOCK_PLANS:
        (groups, size), recorded = BLOCK_PLANS[name]
        tensors = {
            "C": np.zeros((32, 32, 256), np.float32), "B": np.zeros((32, 32, 256), np.float32),
            "AV": np.zeros((groups, size, 32, 32), np.float32),
            "AM": np.zeros(groups, np.int64), "AK": np.zeros((groups, size), np.int64),
        }  # fmt: skip
        expression = BLOCK
    else:
        expression, shapes, recorded = KERNEL_INDIRECT_PLANS[name]
        integer = ("MAPX", "MAPY", "MAPZ", "CGI", "CGJ", "CGK", "CGL")
        tensors = {
            tensor: np.zeros(shape, dtype=np.int64 if tensor in integer else np.float64)
            for tensor, shape in shapes.items()
        }
    kernel = SpecializedKernel.build(plan_insum(expression, tensors))
    assert emit.covers(kernel.plan)
    assert step_text(kernel) == recorded
    if which == "C":
        assert kernel.describe().splitlines()[1].startswith("  emitter: C (")
        assert "vec acc[R][NV] = {0};" in kernel.describe()
    else:
        assert kernel.describe().splitlines()[1].startswith("  emitter: steps (CalledProcessError")


def test_a_dense_reduction_with_nothing_to_tile_keeps_its_steps(emitter):
    """A block SpMV has no vector variable (a plain nest loses to the steps'
    BLAS dot) and a contraction of dense operands no index tensor (BLAS blocks
    it for the cache; the tile counts on a small gathered panel): no loop nest,
    no emitter line."""
    _, calls = emitter
    rng = np.random.default_rng(26)
    values = draw(rng, np.float64)
    dense = np.kron(full_row_pattern(), np.ones((2, 2))) * values(12, 10)
    operator = SparseEinsum(SPMV)
    x, rhs = values(10), values(10, 33)
    result = operator(A=BlockGroupCOO.from_dense(dense, (2, 2)), x=x)
    np.testing.assert_array_equal(result, dense @ x)
    matmul = ("C[m,n] += A[m,k] * B[k,n]", {"C": np.zeros((12, 33)), "A": dense, "B": rhs})
    np.testing.assert_array_equal(insum(matmul[0], **matmul[1]), dense @ rhs)
    kernels = [operator.compiled.specialized, SpecializedKernel.build(plan_insum(*matmul))]
    for kernel in kernels:
        assert not emit.covers(kernel.plan) and kernel.emitted is None
        assert "emitter" not in kernel.describe()
    assert not calls


def test_the_source_is_a_function_of_the_plans_structure_only(emitter):
    """Shapes, patterns, dtypes and tensor spellings share one source — one object."""
    rng = np.random.default_rng(24)
    small, large = groupcoo_tensors(rng), groupcoo_tensors(rng, np.float32)
    large["B"], large["C"] = np.zeros((5, 33), np.float32), np.zeros((6, 33), np.float32)
    spelled = {"Out": "C", "W": "AV", "R": "AM", "K": "AK", "D": "B"}
    renamed = {new: small[old] for new, old in spelled.items()}
    plans = [
        plan_insum(GROUPCOO_SPMM, small),
        plan_insum(GROUPCOO_SPMM, large),
        plan_insum("Out[R[a],b] += W[a,c] * D[K[a,c],b]", renamed),
    ]
    kernels = [SpecializedKernel.build(plan, window_steps=1) for plan in plans]
    sources = {emit._source(k.plan.statement, tuple(k._program.inputs))[0] for k in kernels}
    assert len(sources) == 1
    (source,) = sources
    assert "restrict" in source and "return 0;" in source
    assert not any(name in source for name in ("AM", "AK", "AV", "Out"))
    # The same for a register tile: no extent, no vector width, no name in the text.
    values = draw(rng, np.float64)
    _, conv = dense_tensors("conv", (3, 5, 9, 2), values, rng)
    _, wide = dense_tensors("conv", (2, 1, 113, 7), draw(rng, np.float32), rng)
    spelled = {"Y": "Out", "OX": "MAPX", "S": "MAPV", "F": "In", "IX": "MAPY", "K": "Weight",
               "KX": "MAPZ"}  # fmt: skip
    renamed = {new: conv[old] for new, old in spelled.items()}
    plans = [plan_insum(CONV, conv), plan_insum(CONV, wide)]
    plans.append(plan_insum("Y[OX[g,r],o] += S[g,r] * F[IX[g,r],i] * K[KX[g],i,o]", renamed))
    kernels = [SpecializedKernel.build(plan, window_steps=1) for plan in plans]
    (tiled,) = {emit._source(k.plan.statement, tuple(k._program.inputs))[0] for k in kernels}
    assert "#if defined(__AVX512F__)" in tiled and "vector_size(VB)" in tiled
    assert not any(name in tiled for name in ("MAP", "Weight", "113"))


#: sha256 of the translation unit of every SpMM-family plan, recorded with the
#: run loop: a change that moves a byte of them (and so their object-cache keys)
#: re-records them on purpose.
SPMM_UNITS = {
    "spmm/ell": "f6c0c891eebd8e60",
    "spmm/groupcoo": "aa2f6b55c8ee52da",
    "spmm/coo": "991644dcfc8c0c95",
    "stacked/shared": "b2be946ef30411db",
    "stacked/per-item": "3a68d6a9eb454903",
    "spmv/ell": "20eff28f9fa2359b",
    "spmv/coo": "f2bc524df888fe1b",
}


@pytest.mark.parametrize("family", FAMILIES)
def test_the_spmm_family_sources_are_the_parents_byte_for_byte(emitter, family):
    values = draw(np.random.default_rng(27), np.float64)
    expression, operands, _ = problem(family, full_row_pattern(), 7, values)
    operator = SparseEinsum(expression)
    operator(**operands)
    kernel = operator.compiled.specialized
    unit = emit._unit(emit._source(kernel.plan.statement, tuple(kernel._program.inputs))[0])
    assert hashlib.sha256(unit.encode()).hexdigest()[:16] == SPMM_UNITS[family]
    assert "vec" not in unit and "#if" not in unit


def test_two_processes_return_identical_bytes_for_one_request(emitter):
    which, _ = emitter
    first, second = fresh_interpreter(), fresh_interpreter()
    assert first == second and len(first[0]) == 40 * 9 * 8
    assert first[1] == ("Emitted" if which == "C" else "str")


DENSE_REQUESTS = (
    "import sys, numpy as np\n"
    "from repro import SparseEinsum\n"
    "from repro.datasets import build_kernel_map\n"
    "from repro.formats import BlockCOO, BlockGroupCOO\n"
    "from repro.kernels import FullyConnectedTensorProduct, SparseConv3d\n"
    "rng = np.random.default_rng(33)\n"
    "conv = SparseConv3d(build_kernel_map(rng.integers(0, 4, size=(40, 3))), 5, 19)\n"
    "product = FullyConnectedTensorProduct(1, 9)\n"
    "dense = np.kron(rng.random((6, 5)) < 0.4, np.ones((3, 2))) * rng.standard_normal((18, 10))\n"
    "blocks = [BlockCOO.from_dense(dense, (3, 2)), BlockGroupCOO.from_dense(dense, (3, 2))]\n"
    "spmm, rhs = SparseEinsum('C[m,n] += A[m,k] * B[k,n]'), rng.standard_normal((10, 19))\n"
    "results = [conv(rng.standard_normal((conv.kernel_map.num_voxels, 5)))]\n"
    "results += [product(*product.random_inputs(3, rng))]\n"
    "results += [spmm(A=block, B=rhs) for block in blocks]\n"
    "sys.stdout.buffer.write(b''.join(result.tobytes() for result in results))\n"
    "emitters = [conv.compiled, product.compiled, spmm.compiled]\n"
    "sys.stderr.write(' '.join(type(c.specialized.emitted).__name__ for c in emitters))\n"
)


def test_two_processes_return_identical_bytes_for_every_dense_reduction_family(emitter):
    which, _ = emitter
    first, second = fresh_interpreter(DENSE_REQUESTS), fresh_interpreter(DENSE_REQUESTS)
    assert first == second and len(first[0]) > 0
    assert first[1] == " ".join(["Emitted" if which == "C" else "str"] * 3)


# ---------------------------------------------------------------------------
# (g) where an operand lies: one placement rule, the same bytes
# ---------------------------------------------------------------------------
def at_phase(array, phase):
    """A copy of ``array`` whose data starts ``phase`` bytes past a cache line."""
    raw = np.empty(array.nbytes + 2 * emit._LINE, dtype=np.uint8)
    start = -raw.ctypes.data % emit._LINE + phase
    placed = raw[start : start + array.nbytes].view(array.dtype).reshape(array.shape)
    placed[...] = array
    return placed


def vector_operands(expression):
    """The value operands whose contiguous last axis is the output's."""
    statement = parse_einsum(expression)
    last = statement.lhs.indices[-1]
    return {factor.tensor for factor in statement.rhs.factors if factor.indices[-1] == last}


#: Per reuse, a shape whose vector operand the nest reads at least ``emit._REUSE``
#: times an element ("above") and one it reads fewer times ("below"): an SpMM
#: pattern with its ``N``, and ``(P, R, N, K)`` of a dense-reduction family.
PLACED_PATTERNS = {"above": (np.ones((48, 2), dtype=bool), 19), "below": (full_row_pattern(), 7)}
PLACED_SHAPES = {"above": (120, 3, 19, 3), "below": (3, 2, 7, 4)}
PLACED_FAMILIES = ("conv", "blockcoo", "blockgroupcoo", "product", "product/coo")


def placed_problems(dtype):
    """``(family, reuse, expression, tensors)`` of every family at both reuses."""
    rng = np.random.default_rng(36)
    values = draw(rng, dtype, integer=False)
    for family in FAMILIES:
        for reuse, (pattern, n_cols) in PLACED_PATTERNS.items():
            expression, operands, product = problem(family, pattern, n_cols, values)
            yield family, reuse, *indirect(expression, operands, values(*product.shape))
    for family in PLACED_FAMILIES:
        for reuse, shape in PLACED_SHAPES.items():
            yield family, reuse, *dense_tensors(family, shape, values, rng)


@only_c
@pytest.mark.parametrize("dtype", EMITTED_DTYPES, ids=lambda d: np.dtype(d).name)
def test_where_an_operand_lies_never_changes_a_byte(emitter, dtype):
    """Every value operand at every element-aligned phase mod 64: read in place
    or copied onto a cache line, the result is the phase-0 result bit for bit."""
    _, calls = emitter
    phases = range(0, emit._LINE, np.dtype(dtype).itemsize)
    runs = 0
    for family, reuse, expression, tensors in placed_problems(dtype):
        context = f"{family} {reuse} {np.dtype(dtype).name}"
        kernel = SpecializedKernel.build(plan_insum(expression, tensors))
        vectors = vector_operands(expression) if reuse == "above" else set()
        reused = {name for name, _, kind in kernel.emitted.layout if kind == "reused"}
        assert reused == vectors, context
        operands = [factor.tensor for factor in parse_einsum(expression).rhs.factors]
        results = [
            kernel.run({**tensors, **{name: at_phase(tensors[name], phase) for name in operands}})
            for phase in phases
        ]
        runs += len(phases)
        for phase, result in zip(phases, results):
            assert result.tobytes() == results[0].tobytes(), f"{context} at phase {phase}"
    assert len(calls) == runs and set(calls) == {np.dtype(dtype)}


@only_c
@pytest.mark.parametrize("family", ["conv", "blockgroupcoo"])
def test_a_copy_is_made_per_call_and_never_handed_back(emitter, family, monkeypatch):
    """A misaligned vector operand mutated in place between two calls: the second
    result is the new oracle, the caller's array is untouched and no result
    shares memory with a copy."""
    _, calls = emitter
    rng = np.random.default_rng(37)
    values = draw(rng, np.float64)
    expression, tensors = dense_tensors(family, PLACED_SHAPES["above"], values, rng)
    (name,) = vector_operands(expression)
    tensors[name] = at_phase(tensors[name], 16)
    copies, place = [], emit._placed

    def recorded(array, dtype, on_line):
        placed = place(array, dtype, on_line)
        copies.extend([placed] * (placed is not array))
        return placed

    monkeypatch.setattr(emit, "_placed", recorded)
    kernel = SpecializedKernel.build(plan_insum(expression, tensors))
    results = []
    for scale in (1, -3):
        tensors[name] *= scale
        before = tensors[name].copy()
        results.append(kernel.run(tensors))
        np.testing.assert_array_equal(results[-1], oracle(expression, tensors))
        np.testing.assert_array_equal(tensors[name], before)
    assert len(calls) == len(copies) == 2 and not np.shares_memory(*copies)
    assert all(copy.ctypes.data % emit._LINE == 0 for copy in copies)
    assert not any(np.shares_memory(result, copy) for result in results for copy in copies)


@only_c
def test_describe_names_the_operands_placed_on_a_cache_line(emitter):
    rng = np.random.default_rng(38)
    values = draw(rng, np.float32)
    named = {"above": "; on a cache line, else copied: Weight", "below": ""}
    for reuse, shape in PLACED_SHAPES.items():
        expression, tensors = dense_tensors("conv", shape, values, rng)
        kernel = SpecializedKernel.build(plan_insum(expression, tensors))
        head = "  emitter: C (float32/float64 values, int64 indices; else the steps)"
        assert kernel.describe().splitlines()[1] == head + named[reuse]
    expression, operands, _ = problem("spmm/coo", PLACED_PATTERNS["above"][0], 19, values)
    operator = SparseEinsum(expression)
    operator(**operands)
    assert operator.compiled.specialized.describe().splitlines()[1].endswith("else copied: B")
