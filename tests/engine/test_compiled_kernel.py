"""The compiled step list of :class:`~repro.engine.specialize.SpecializedKernel`.

What the flat kernel promises beyond matching the reference interpreter
(``test_specialize_parity.py``): the window schedule never changes a result,
operand dtypes are kept, nothing is interpreted at run time, no caller
memory is written, NumPy's own bounds check still guards the gathers, one
kernel serves many threads, and one rule — printed by ``describe()`` —
decides which plans sum their duplicate targets inside the dot.
"""

import gc
import threading
import weakref

import numpy as np
import pytest

from repro import sparse_einsum
from repro.core.einsum import reference_execute
from repro.core.einsum.parser import parse_einsum
from repro.core.einsum.rewriting import rewrite_sparse_operand
from repro.core.insum import plan_insum
from repro.engine import specialize
from repro.engine.fingerprint import clear_derived_cache, derived_cache_size
from repro.engine.specialize import SpecializedKernel, materialize_plan
from repro.formats import COO, ELL, BlockCOO, BlockGroupCOO, GroupCOO
from repro.runtime.stacked import StackedSparse

#: These suites are about the step list: they run with the C emitter unavailable
#: (``tests/engine/test_emitters.py`` is the differential net over both).
pytestmark = pytest.mark.usefixtures("steps_only")

SPMM = "C[m,n] += A[m,k] * B[k,n]"
SPMV = "y[m] += A[m,k] * x[k]"
STACKED = "C[s,m,n] += A[s,m,k] * B[k,n]"
STACKED_PER_ITEM = "C[s,m,n] += A[s,m,k] * B[s,k,n]"
CONV = "Out[MAPX[p,q],m] += MAPV[p,q] * In[MAPY[p,q],c] * Weight[MAPZ[p],c,m]"
EQUIVARIANT = (
    "Z[b,CGI[p,q],w] += CGV[p,q] * X[b,CGJ[p,q],u] * Y[b,CGK[p,q]] * W[b,CGL[p],u,w]"
)

FORMATS = {
    "coo": COO.from_dense,
    "ell": ELL.from_dense,
    "groupcoo": lambda dense: GroupCOO.from_dense(dense, group_size=4),
    "blockcoo": lambda dense: BlockCOO.from_dense(dense, (4, 4)),
    "blockgroupcoo": lambda dense: BlockGroupCOO.from_dense(dense, (4, 4), group_size=2),
}


def integers(rng):
    """Integer-valued draws: every summation order gives the same bits."""
    return lambda *shape: np.round(rng.standard_normal(shape) * 4.0)


def normals(rng):
    return lambda *shape: rng.standard_normal(shape)


def lowered(expression, name, fmt, index_names, **dense):
    """``(indirect expression, execution tensors)`` of a logical statement."""
    shapes = {key: value.shape for key, value in dense.items()}
    plan = fmt.rewrite_plan(name, index_names)
    rewrite = rewrite_sparse_operand(parse_einsum(expression), plan, shapes)
    tensors = {**dense, **rewrite.tensors}
    for key, shape in rewrite.reshapes.items():
        tensors[key] = tensors[key].reshape(shape)
    output = parse_einsum(expression).lhs.tensor
    if rewrite.output_reshape is not None:
        tensors[output] = tensors[output].reshape(rewrite.output_reshape)
    return rewrite.expression, tensors


def sparse(draw, rows=24, cols=16, density=0.3):
    """A matrix on a fixed pattern (a few long rows, no empty one)."""
    mask = np.random.default_rng(3).random((rows, cols)) < density
    mask[::5] |= np.random.default_rng(4).random((len(mask[::5]), cols)) < 0.6
    mask[:, 0] = True
    return np.where(mask, draw(rows, cols), 0.0)


def spmm_case(format_name):
    def make(draw):
        fmt = FORMATS[format_name](sparse(draw))
        return lowered(SPMM, "A", fmt, ["m", "k"], B=draw(16, 6), C=draw(24, 6))

    return make


def spmv_case(format_name):
    def make(draw):
        fmt = FORMATS[format_name](sparse(draw))
        return lowered(SPMV, "A", fmt, ["m", "k"], x=draw(16), y=draw(24))

    return make


def unbound_ell_case(draw):
    """A scatter-free plan on the zero placeholder of a call that binds no
    output: the dot writes straight into the result."""
    fmt = FORMATS["ell"](sparse(draw))
    placeholder = np.broadcast_to(np.float64(0.0), (24, 6))
    return lowered(SPMM, "A", fmt, ["m", "k"], B=draw(16, 6), C=placeholder)


def assignment_case(draw):
    """``=`` ignores the bound output: also a dot straight into the result."""
    return "C[m,n] = A[m,k] * B[k,n]", {"C": draw(9, 6), "A": draw(9, 5), "B": draw(5, 6)}


def stacked_case(draw):
    mask = sparse(draw) != 0
    stack = np.where(mask[None], draw(3, 24, 16), 0.0)
    fmt = StackedSparse.from_dense(stack, GroupCOO, group_size=4)
    return lowered(STACKED, "A", fmt, ["s", "m", "k"], B=draw(16, 6), C=draw(3, 24, 6))


def stacked_per_item_case(draw):
    """A stack whose every item has its own dense operand."""
    mask = sparse(draw) != 0
    stack = np.where(mask[None], draw(3, 24, 16), 0.0)
    fmt = StackedSparse.from_dense(stack, GroupCOO, group_size=4)
    dense = {"B": draw(3, 16, 6), "C": draw(3, 24, 6)}
    return lowered(STACKED_PER_ITEM, "A", fmt, ["s", "m", "k"], **dense)


def conv_case(draw):
    voxels, groups, size, channels, filters, offsets = 9, 7, 3, 4, 5, 6
    index = np.random.default_rng(5)
    return CONV, {
        "Out": draw(voxels, filters),
        "MAPX": index.integers(0, voxels, size=(groups, size)),
        "MAPY": index.integers(0, voxels, size=(groups, size)),
        "MAPZ": index.integers(0, offsets, size=groups),
        "MAPV": draw(groups, size),
        "In": draw(voxels, channels),
        "Weight": draw(offsets, channels, filters),
    }


def equivariant_case(draw):
    batch, slots, paths, groups, size, channels = 7, 5, 4, 6, 2, 3
    index = np.random.default_rng(6)
    return EQUIVARIANT, {
        "Z": draw(batch, slots, channels),
        "CGI": index.integers(0, slots, size=(groups, size)),
        "CGJ": index.integers(0, slots, size=(groups, size)),
        "CGK": index.integers(0, slots, size=(groups, size)),
        "CGL": index.integers(0, paths, size=groups),
        "CGV": draw(groups, size),
        "X": draw(batch, slots, channels),
        "Y": draw(batch, slots),
        "W": draw(batch, paths, channels, channels),
    }


CASES = {
    **{f"spmm/{name}": spmm_case(name) for name in FORMATS},
    "spmm/ell/unbound": unbound_ell_case,
    "spmv/coo": spmv_case("coo"),
    "spmv/ell": spmv_case("ell"),
    "stacked/groupcoo": stacked_case,
    "stacked/groupcoo/per-item": stacked_per_item_case,
    "conv": conv_case,
    "equivariant": equivariant_case,
}
cases = pytest.mark.parametrize("make", CASES.values(), ids=CASES.keys())


# ---------------------------------------------------------------------------
# (a) window invariance
# ---------------------------------------------------------------------------
@cases
def test_window_schedule_never_changes_an_integer_result(make, rng):
    expression, tensors = make(integers(rng))
    plan = plan_insum(expression, tensors)
    expected = reference_execute(expression, tensors)
    for window_steps in (1, 3, None):
        kernel = SpecializedKernel.build(plan, window_steps=window_steps)
        np.testing.assert_array_equal(kernel.run(tensors), expected)


@cases
def test_window_schedule_changes_normal_draws_only_by_rounding(make, rng):
    expression, tensors = make(normals(rng))
    plan = plan_insum(expression, tensors)
    expected = reference_execute(expression, tensors)
    for window_steps in (1, 3, None):
        result = SpecializedKernel.build(plan, window_steps=window_steps).run(tensors)
        np.testing.assert_allclose(result, expected, rtol=1e-12, atol=1e-12)


@cases
def test_no_plan_of_the_kernel_families_reaches_the_einsum_fallback(make, rng):
    expression, tensors = make(integers(rng))
    description = SpecializedKernel.build(plan_insum(expression, tensors)).describe()
    assert "einsum" not in description
    assert "take(" in description  # every family gathers


def test_a_dense_assignment_is_one_dot_per_window(rng):
    expression, tensors = assignment_case(integers(rng))
    plan = plan_insum(expression, tensors)
    expected = tensors["A"] @ tensors["B"]
    for window_steps in (1, 4, None):
        kernel = SpecializedKernel.build(plan, window_steps=window_steps)
        assert "out[window].reshape(-1, 6) = matmul(" in kernel.describe()
        np.testing.assert_array_equal(kernel.run(tensors), expected)


def test_an_inexpressible_contraction_keeps_einsum_with_a_prebuilt_path(rng):
    """A reduction variable only one factor carries: no fold, no dot."""
    tensors = {"y": np.zeros(5), "A": rng.standard_normal((5, 4, 3)), "x": rng.standard_normal(4)}
    plan = plan_insum("y[i] += A[i,k,j] * x[k]", tensors)
    expected = np.einsum("ikj,k->i", tensors["A"], tensors["x"])
    for window_steps in (2, None):
        kernel = SpecializedKernel.build(plan, window_steps=window_steps)
        assert "einsum('" in kernel.describe()
        np.testing.assert_allclose(kernel.run(tensors), expected, atol=1e-12)


@pytest.mark.parametrize(
    "expression",
    [
        # ``v`` would fold into the gathered ``A``; ``j`` rules the dot out.
        "y[i] += A[R[i],k,j] * x[k] * v[i]",
        # ``v`` would fold into the gathered ``A``; ``W`` fits neither side.
        "Y[i,n] += A[R[i],k] * v[i] * B[k,n] * W[i,n]",
        # The same with the rejected factor ahead of the foldable one.
        "Y[i,n] += W[i,n] * A[R[i],k] * B[k,n] * v[i]",
    ],
)
def test_the_einsum_fallback_sees_unfolded_operands(expression, rng):
    """A plan the lowering rejects emits no fold: each factor counts once."""
    tensors = {
        "y": rng.standard_normal(5),
        "Y": rng.standard_normal((5, 6)),
        "A": rng.standard_normal((7, 4, 3) if "j" in expression else (7, 4)),
        "R": rng.integers(0, 7, size=5),
        "x": rng.standard_normal(4),
        "v": rng.standard_normal(5),
        "B": rng.standard_normal((4, 6)),
        "W": rng.standard_normal((5, 6)),
    }
    before = {name: array.copy() for name, array in tensors.items()}
    plan = plan_insum(expression, tensors)
    expected = reference_execute(expression, tensors)
    for window_steps in (2, None):
        kernel = SpecializedKernel.build(plan, window_steps=window_steps)
        described = kernel.describe()
        assert "einsum('" in described and "in place" not in described
        np.testing.assert_allclose(kernel.run(tensors), expected, rtol=1e-12, atol=1e-12)
    for name, array in tensors.items():
        np.testing.assert_array_equal(array, before[name])


# ---------------------------------------------------------------------------
# (b) dtype contract
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int64, np.complex128])
@pytest.mark.parametrize("format_name", FORMATS)
def test_result_dtype_is_the_operands_common_dtype(format_name, dtype, rng):
    dense = sparse(integers(rng)).astype(dtype)
    rhs = integers(rng)(16, 6).astype(dtype)
    if dtype == np.complex128:
        dense, rhs = dense * (1 + 2j), rhs * (3 - 1j)
    fmt = FORMATS[format_name](dense)
    result = sparse_einsum(SPMM, A=fmt, B=rhs)
    assert result.dtype == np.result_type(fmt.tensors("A")["AV"], rhs)
    np.testing.assert_array_equal(result, dense @ rhs)


@pytest.mark.parametrize("dtype", [np.float32, np.float64, np.complex128])
@pytest.mark.parametrize("format_name", FORMATS)
def test_an_all_zero_operand_keeps_the_value_dtype(format_name, dtype, rng):
    """No stored value is no reason to fall back to float64."""
    fmt = FORMATS[format_name](np.zeros((24, 16), dtype=dtype))
    rhs = integers(rng)(16, 6).astype(np.float32)
    assert fmt.tensors("A")["AV"].dtype == dtype
    result = sparse_einsum(SPMM, A=fmt, B=rhs)
    assert result.dtype == np.result_type(dtype, np.float32)
    assert result.shape == (24, 6) and not result.any()


@pytest.mark.parametrize("format_name", FORMATS)
def test_a_caller_bound_output_still_decides_the_dtype(format_name, rng):
    dense = sparse(integers(rng)).astype(np.float32)
    rhs = integers(rng)(16, 6).astype(np.float32)
    bound = np.zeros((24, 6))
    result = sparse_einsum(SPMM, A=FORMATS[format_name](dense), B=rhs, C=bound)
    assert result.dtype == np.float64 and result.shape == (24, 6)
    np.testing.assert_array_equal(result, dense @ rhs)
    assert not bound.any()  # the base is read, never written


SCALAR_CASES = {
    "direct": ("s {op} x[i] * y[i]", "i,i->"),
    "gathered": ("s {op} AV[p] * x[AK[p]]", "p,p->"),
}


@pytest.mark.parametrize("op", ["=", "+="])
@pytest.mark.parametrize("case", SCALAR_CASES)
@pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int64])
def test_a_scalar_output_runs_on_the_step_list(case, op, dtype, rng):
    """One window, ``...``: its 0-d view takes both the ``+=`` and the direct dot."""
    expression, equation = SCALAR_CASES[case]
    draw = integers(rng)
    tensors = {"s": draw().astype(dtype), "x": draw(7).astype(dtype), "y": draw(7).astype(dtype)}
    tensors.update(AV=draw(5).astype(dtype), AK=rng.integers(0, 7, size=5))
    gathered = tensors["x"][tensors["AK"]]
    operands = (tensors["x"], tensors["y"]) if case == "direct" else (tensors["AV"], gathered)
    expected = np.einsum(equation, *operands) + (tensors["s"] if op == "+=" else 0)
    plan = plan_insum(expression.format(op=op), tensors)
    for kernel in (
        *(SpecializedKernel.build(plan, window_steps=steps) for steps in (1, None)),
        materialize_plan(plan),
    ):
        described = kernel.describe()
        assert described.startswith("specialized: 1 window(s) over the 0-d result")
        assert "unfused fallback" not in described and "emitter" not in described
        result = kernel.run(tensors)
        assert result.dtype == dtype and result.shape == ()
        np.testing.assert_array_equal(result, expected)


# ---------------------------------------------------------------------------
# (c) nothing is interpreted at run time
# ---------------------------------------------------------------------------
@cases
def test_a_warm_run_neither_searches_a_path_nor_moves_an_axis(make, rng, monkeypatch):
    expression, tensors = make(integers(rng))
    kernel = SpecializedKernel.build(plan_insum(expression, tensors), window_steps=3)
    expected = kernel.run(tensors)

    def forbidden(*args, **kwargs):
        raise AssertionError("interpreted at run time")

    for name in ("einsum_path", "einsum", "moveaxis", "argsort", "unique"):
        monkeypatch.setattr(np, name, forbidden)
    # A warm run plans no scatter and cuts no run windows either: the memo hits.
    for name in ("plan_scatter", "plan_runs"):
        monkeypatch.setattr(specialize, name, forbidden)
    np.testing.assert_array_equal(kernel.run(tensors), expected)


# ---------------------------------------------------------------------------
# (d) in-place folds never touch caller memory
# ---------------------------------------------------------------------------
def pointwise_case(draw):
    """The only factor carrying every output variable is a caller's array."""
    return "C[i,j] += A[i,j] * S[i]", {"C": draw(6, 5), "A": draw(6, 5), "S": draw(6)}


def direct_dot_case(draw):
    """A fold into a direct side of the dot."""
    tensors = {"C": draw(6, 5), "A": draw(6, 4), "S": draw(6), "B": draw(4, 5)}
    return "C[m,n] += A[m,k] * S[m] * B[k,n]", tensors


WRITE_CASES = {**CASES, "pointwise": pointwise_case, "dot": direct_dot_case}


@pytest.mark.parametrize("read_only", [False, True], ids=["writable", "read-only"])
@pytest.mark.parametrize("make", WRITE_CASES.values(), ids=WRITE_CASES.keys())
def test_every_operand_is_byte_identical_after_a_run(make, read_only, rng):
    expression, tensors = make(integers(rng))
    before = {name: array.tobytes() for name, array in tensors.items()}
    if read_only:
        for array in tensors.values():
            array.setflags(write=False)
    plan = plan_insum(expression, tensors)
    expected = reference_execute(expression, tensors)
    for window_steps in (2, None):
        result = SpecializedKernel.build(plan, window_steps=window_steps).run(tensors)
        np.testing.assert_array_equal(result, expected)
        assert {name: array.tobytes() for name, array in tensors.items()} == before


# ---------------------------------------------------------------------------
# (e) NumPy's own bounds check guards the gathers
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("window_steps", [2, None], ids=["windowed", "one-window"])
def test_unchecked_gather_indices_behave_as_numpy_take(window_steps, rng):
    expression, tensors = spmm_case("groupcoo")(integers(rng))
    plan = plan_insum(expression, tensors, check_bounds=False)
    kernel = SpecializedKernel.build(plan, window_steps=window_steps)
    rows = tensors["B"].shape[0]

    wrapped = dict(tensors, AK=tensors["AK"].copy())
    wrapped["AK"][-1, -1] -= rows  # a negative index wraps around, as in NumPy
    np.testing.assert_array_equal(kernel.run(wrapped), kernel.run(tensors))

    outside = dict(tensors, AK=tensors["AK"].copy())
    outside["AK"][-1, -1] = rows
    with pytest.raises(IndexError):
        kernel.run(outside)


# ---------------------------------------------------------------------------
# (f) one kernel, many threads
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "name",
    ["spmm/groupcoo", "spmm/coo", "stacked/groupcoo", "spmm/ell", "conv", "equivariant"],
)
def test_four_threads_share_one_compiled_kernel(name, rng):
    expression, tensors = CASES[name](integers(rng))
    kernel = SpecializedKernel.build(plan_insum(expression, tensors), window_steps=2)
    expected = kernel.run(tensors)
    barrier = threading.Barrier(4)
    wrong: list[int] = []

    def worker(position: int) -> None:
        barrier.wait(timeout=30)
        for _ in range(25):
            if not np.array_equal(kernel.run(tensors), expected):
                wrong.append(position)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []


# ---------------------------------------------------------------------------
# (g) duplicates are a reduction: the run-windowed plans
# ---------------------------------------------------------------------------
#: The shapes the rule takes, as raw indirect Einsums over hand-built index
#: arrays: ``{tensor: shape}`` with ``G`` the number of updates, and the
#: ``np.einsum`` of the values with the gathered ``B`` that the oracle scatters.
#: Rows 7, columns (or block columns) 5.
RULE_SHAPES = {
    "coo": (
        "C[AM[p],n] += AV[p] * B[AK[p],n]",
        {"C": (7, 3), "AV": ("G",), "AK": ("G",), "B": (5, 3)},
        "p,pn->pn",
    ),
    "groupcoo": (
        "C[AM[p],n] += AV[p,q] * B[AK[p,q],n]",
        {"C": (7, 3), "AV": ("G", 2), "AK": ("G", 2), "B": (5, 3)},
        "pq,pqn->pn",
    ),
    "blockcoo": (
        "C[AM[p],bm,n] += AV[p,bm,bk] * B[AK[p],bk,n]",
        {"C": (7, 2, 3), "AV": ("G", 2, 4), "AK": ("G",), "B": (5, 4, 3)},
        "pab,pbn->pan",
    ),
    "blockgroupcoo": (
        "C[AM[p],bm,n] += AV[p,q,bm,bk] * B[AK[p,q],bk,n]",
        {"C": (7, 2, 3), "AV": ("G", 2, 2, 4), "AK": ("G", 2), "B": (5, 4, 3)},
        "pqab,pqbn->pan",
    ),
    "stacked": (
        "C[s,AM[p],n] += AV[s,p,q] * B[AK[p,q],n]",
        {"C": (3, 7, 3), "AV": (3, "G", 2), "AK": ("G", 2), "B": (5, 3)},
        "spq,pqn->psn",
    ),
    "stacked/per-item": (
        "C[s,AM[p],n] += AV[s,p,q] * B[s,AK[p,q],n]",
        {"C": (3, 7, 3), "AV": (3, "G", 2), "AK": ("G", 2), "B": (3, 5, 3)},
        "spq,spqn->psn",
    ),
}
#: Target rows of the updates, in storage order.
RULE_PATTERNS = {
    "unsorted duplicates": [4, 0, 4, 6, 0, 4, 2, 6, 4, 0, 1, 4],
    "empty": [],
    "a full row beside singletons": [3, 5, 3, 3, 0, 3, 3, 6, 3, 3, 3],
    "one row": [2] * 9,
    "disjoint": [5, 1, 6, 0],
}
DTYPES = [np.float32, np.float64, np.int64, np.complex128]


def rule_case(shape, pattern, dtype, output, rng):
    """``(expression, tensors, oracle)``: integer-valued operands of ``dtype``.

    The oracle is plain NumPy: gather, ``np.einsum`` per update, ``np.add.at``.
    """
    expression, shapes, equation = RULE_SHAPES[shape]
    rows = np.array(RULE_PATTERNS[pattern], dtype=np.int64)
    draw = integers(rng)
    tensors = {"AM": rows}
    for name, dims in shapes.items():
        dims = tuple(rows.size if d == "G" else d for d in dims)
        if name == "AK":
            tensors[name] = rng.integers(0, 5, size=dims)
        else:
            tensors[name] = draw(*dims).astype(dtype) * (1 + 2j if dtype == np.complex128 else 1)
    if output == "unbound":
        tensors["C"] = np.broadcast_to(np.zeros((), dtype=dtype), tensors["C"].shape)
    elif output == "assigned":
        expression = expression.replace("+=", "=")
    per_item = shape == "stacked/per-item"
    gathered = np.take(tensors["B"], tensors["AK"], axis=int(per_item))
    updates = np.einsum(equation, tensors["AV"], gathered)
    oracle = np.zeros_like(tensors["C"]) if output == "assigned" else tensors["C"].copy()
    np.add.at(oracle.swapaxes(0, 1) if shape.startswith("stacked") else oracle, rows, updates)
    return expression, tensors, oracle


@pytest.mark.parametrize("output", ["unbound", "bound", "assigned"])
@pytest.mark.parametrize("pattern", RULE_PATTERNS)
@pytest.mark.parametrize("shape", RULE_SHAPES)
def test_the_dot_sums_duplicate_targets_exactly(shape, pattern, output, rng):
    for dtype in DTYPES:
        expression, tensors, expected = rule_case(shape, pattern, dtype, output, rng)
        before = {name: array.tobytes() for name, array in tensors.items()}
        for array in tensors.values():
            array.setflags(write=False)
        plan = plan_insum(expression, tensors)
        for window_steps in (1, 2, None):
            kernel = SpecializedKernel.build(plan, window_steps=window_steps)
            result = kernel.run(tensors)
            np.testing.assert_array_equal(result, expected)
            assert result.dtype == dtype and result.flags.writeable
            if RULE_PATTERNS[pattern]:
                assert kernel.run_variable == "p" and "segment_add" not in kernel.describe()
        assert {name: array.tobytes() for name, array in tensors.items()} == before


@pytest.mark.parametrize("shape", RULE_SHAPES)
def test_a_run_longer_than_a_window_is_one_window(shape, rng, monkeypatch):
    """``max(1, ...)``: a row's duplicates are never split across windows."""
    monkeypatch.setattr(specialize, "_WINDOW_BYTES", 64)
    case = rule_case(shape, "a full row beside singletons", np.float64, "bound", rng)
    expression, tensors, expected = case
    kernel = SpecializedKernel.build(plan_insum(expression, tensors))
    assert 8 * (kernel.per_step_bytes - kernel.per_run_bytes) > 64  # the run of eight
    walked = []
    load = kernel._program.per_window[0]
    kernel._program.per_window[0] = load._replace(
        run=lambda regs, w: (load.run(regs, w), walked.append(regs[kernel._program.runs]))
    )
    np.testing.assert_array_equal(kernel.run(tensors), expected)
    assert walked == [1, 1, 1, 1]  # three singleton rows, then the full row whole


def test_the_rule_is_printed_and_leaves_other_plans_their_segment_sum(rng):
    draw = integers(rng)
    for name, make in CASES.items():
        expression, tensors = make(draw)
        kernel = SpecializedKernel.build(plan_insum(expression, tensors))
        described = kernel.describe()
        scatters_rows = name.startswith(("spmm/", "stacked/")) and "ell" not in name
        assert (kernel.run_variable == "p") == scatters_rows, name
        assert ("over the runs of equal AM[p]" in described) == scatters_rows, name
        assert ("segment_add(" in described) == (name in ("spmv/coo", "conv", "equivariant")), name
    # One element per update keeps the sequential sum, stacked or not.
    for expression, shapes in [
        ("y[s,AM[p]] += AV[p] * x[s,AK[p]]", {"y": (3, 7), "AV": (9,), "x": (3, 5)}),
        ("C[AM[p],n] += AV[p] * B[AK[p],n]", {"C": (7, 1), "AV": (9,), "B": (5, 1)}),
    ]:
        tensors = {name: draw(*shape) for name, shape in shapes.items()}
        tensors.update(AM=rng.integers(0, 7, size=9), AK=rng.integers(0, 5, size=9))
        kernel = SpecializedKernel.build(plan_insum(expression, tensors))
        assert kernel.run_variable is None and "segment_add(" in kernel.describe()
        np.testing.assert_array_equal(kernel.run(tensors), reference_execute(expression, tensors))


def test_a_plan_the_dot_cannot_sum_keeps_its_segment_sum(rng):
    """``p`` is on one side of the dot only: no ``K`` group for its runs to join."""
    draw = integers(rng)
    expression = "C[AM[p],n] += X[p,k] * W[k,n]"
    tensors = {"C": draw(7, 3), "AM": rng.integers(0, 7, size=9), "X": draw(9, 4), "W": draw(4, 3)}
    kernel = SpecializedKernel.build(plan_insum(expression, tensors), window_steps=2)
    assert kernel.run_variable is None and "segment_add(" in kernel.describe()
    np.testing.assert_array_equal(kernel.run(tensors), reference_execute(expression, tensors))


def test_a_plain_source_axis_ahead_of_the_gather_axis_is_cut_too(rng):
    draw = integers(rng)
    expression = "Z[I[p],n] += V[p,q] * W[p,J[q],n]"
    tensors = {
        "Z": draw(5, 3),
        "I": np.array([3, 1, 3, 3, 0, 1]),
        "J": rng.integers(0, 4, size=2),
        "V": draw(6, 2),
        "W": draw(6, 4, 3),
    }
    for window_steps in (1, None):
        kernel = SpecializedKernel.build(plan_insum(expression, tensors), window_steps)
        assert kernel.run_variable == "p"
        np.testing.assert_array_equal(kernel.run(tensors), reference_execute(expression, tensors))


def test_run_windows_are_memoized_once_per_pattern_and_die_with_it(rng):
    case = rule_case("groupcoo", "unsorted duplicates", np.float64, "bound", rng)
    expression, tensors, expected = case
    kernel = SpecializedKernel.build(plan_insum(expression, tensors))
    gc.collect()
    clear_derived_cache()
    np.testing.assert_array_equal(kernel.run(tensors), expected)
    assert derived_cache_size() == 1  # the windows and the ordered ``AK``: one artefact
    np.testing.assert_array_equal(kernel.run(tensors), expected)
    assert derived_cache_size() == 1
    # Other gather indices under the same scatter index: another artefact.
    other = dict(tensors, AK=tensors["AK"].copy())
    np.testing.assert_array_equal(kernel.run(other), expected)
    assert derived_cache_size() == 2
    # The artefact holds copies only, so it dies with the scatter index.
    released = weakref.ref(tensors["AM"])
    del tensors["AM"], other["AM"]
    gc.collect()
    assert released() is None and derived_cache_size() == 0


#: ``describe()`` of the five ``kernel_indirect`` plans of the layer benchmark,
#: recorded at 30341b0 (the parent of the run-windowing change): extents
#: ``(header, matmul and source reshapes)`` per case.
CONV_STEPS = """\
specialized: {header}
  per call:
    t15 = memoized scatter plans of MAPX
  per window:
    t9 = MAPV[window on axes [0]]
    t10 = MAPY[window on axes [0]]
    t11 = take(In, t10, axis=0)  # In[MAPY[p,q],c] -> [p,q,c]
    t12 = MAPZ[window on axes [0]]
    t13 = take(Weight, t12, axis=0)  # Weight[MAPZ[p],c,m] -> [p,c,m]
    t11 = t11 * t9 (in place)
    t14 = matmul(t11, t13).reshape(-1, 32, {m})
    t16 = t14.reshape(-1, {m})
    segment_add(out, MAPX[window], t16, t15[window])"""
EQUIVARIANT_STEPS = """\
specialized: {header}
  per call:
    t18 = memoized scatter plans of CGI
  per window:
    t11 = X[window on axes [0]]
    t12 = take(t11, CGJ, axis=1)  # X[b,CGJ[p,q],u] -> [b,p,q,u]
    t13 = Y[window on axes [0]]
    t14 = take(t13, CGK, axis=1)  # Y[b,CGK[p,q]] -> [b,p,q]
    t15 = W[window on axes [0]]
    t16 = take(t15, CGL, axis=1)  # W[b,CGL[p],u,w] -> [b,p,u,w]
    t12 = t12 * CGV (in place)
    t12 = t12 * t14 (in place)
    t17 = matmul(t12, t16).reshape(-1, {p}, {q}, {w})
    t19 = t17.transpose(1, 2, 0, 3).reshape({pq}, -1, {w})
    segment_add(out.transpose(1, 0, 2)[window], CGI, t19, t18)"""


def conv_shapes(voxels, channels, groups):
    size = (groups, 32)
    return {
        "Out": (voxels, channels), "In": (voxels, channels), "Weight": (27, channels, channels),
        "MAPX": size, "MAPY": size, "MAPV": size, "MAPZ": (groups,),
    }  # fmt: skip


def equivariant_shapes(slots, paths, channels, groups, size):
    return {
        "Z": (64, slots, channels), "X": (64, slots, channels), "Y": (64, slots),
        "W": (64, paths, channels, channels), "CGV": (groups, size), "CGL": (groups,),
        "CGI": (groups, size), "CGJ": (groups, size), "CGK": (groups, size),
    }  # fmt: skip


KERNEL_INDIRECT_PLANS = {
    "conv/pantry/c32": (
        CONV, conv_shapes(5967, 32, 575),
        CONV_STEPS.format(header="28 window(s) of 21 steps over 'p' (24832 B per step)", m=32),
    ),
    "conv/copyRoom/c64": (
        CONV, conv_shapes(6178, 64, 568),
        CONV_STEPS.format(header="82 window(s) of 7 steps over 'p' (65792 B per step)", m=64),
    ),
    "equivariant/l1/c16": (
        EQUIVARIANT, equivariant_shapes(4, 5, 16, 10, 2),
        EQUIVARIANT_STEPS.format(
            header="4 window(s) of 20 steps over 'b' (25760 B per step)", p=10, q=2, pq=20, w=16
        ),
    ),
    "equivariant/l2/c16": (
        EQUIVARIANT, equivariant_shapes(9, 15, 16, 40, 4),
        EQUIVARIANT_STEPS.format(
            header="16 window(s) of 4 steps over 'b' (124160 B per step)", p=40, q=4, pq=160, w=16
        ),
    ),
    "equivariant/l2/c32": (
        EQUIVARIANT, equivariant_shapes(9, 15, 32, 40, 4),
        EQUIVARIANT_STEPS.format(
            header="64 window(s) of 1 steps over 'b' (410880 B per step)", p=40, q=4, pq=160, w=32
        ),
    ),
}  # fmt: skip


def step_text(kernel):
    """``describe()`` without what the second emitter adds (its line, and the
    source under it): the window schedule and the steps, as recorded."""
    lines = kernel.describe().splitlines()
    start = stop = next(n for n, line in enumerate(lines) if line.startswith("  emitter:"))
    while stop + 1 < len(lines) and lines[stop + 1].startswith("    "):
        stop += 1
    return "\n".join(lines[:start] + lines[stop + 1 :])


@pytest.mark.parametrize("name", KERNEL_INDIRECT_PLANS)
def test_the_kernel_indirect_plans_are_compiled_as_before(name):
    expression, shapes, recorded = KERNEL_INDIRECT_PLANS[name]
    tensors = {
        tensor: np.zeros(shape, dtype=np.int64 if tensor[:3] in ("MAP", "CGI", "CGJ", "CGK", "CGL")
                         and tensor != "MAPV" else np.float64)
        for tensor, shape in shapes.items()
    }  # fmt: skip
    kernel = SpecializedKernel.build(plan_insum(expression, tensors))
    assert "  emitter: steps (CalledProcessError" in kernel.describe()  # CC=/bin/false here
    assert step_text(kernel) == recorded
