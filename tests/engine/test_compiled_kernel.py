"""The compiled step list of :class:`~repro.engine.specialize.SpecializedKernel`.

What the flat kernel promises beyond matching the reference interpreter
(``test_specialize_parity.py``): the window schedule never changes a result,
operand dtypes are kept, nothing is interpreted at run time, no caller
memory is written, NumPy's own bounds check still guards the gathers, and
one kernel serves many threads.
"""

import threading

import numpy as np
import pytest

from repro import sparse_einsum
from repro.core.einsum import reference_execute
from repro.core.einsum.parser import parse_einsum
from repro.core.einsum.rewriting import rewrite_sparse_operand
from repro.core.inductor.executor import run_unfused
from repro.core.insum import plan_insum
from repro.engine.specialize import SpecializedKernel
from repro.formats import COO, ELL, BlockCOO, BlockGroupCOO, GroupCOO
from repro.runtime.stacked import StackedSparse

SPMM = "C[m,n] += A[m,k] * B[k,n]"
SPMV = "y[m] += A[m,k] * x[k]"
STACKED = "C[s,m,n] += A[s,m,k] * B[k,n]"
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
    expected = run_unfused(plan, tensors)
    for window_steps in (1, 3, None):
        kernel = SpecializedKernel.build(plan, window_steps=window_steps)
        np.testing.assert_array_equal(kernel.run(tensors), expected)


@cases
def test_window_schedule_changes_normal_draws_only_by_rounding(make, rng):
    expression, tensors = make(normals(rng))
    plan = plan_insum(expression, tensors)
    expected = run_unfused(plan, tensors)
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


@pytest.mark.parametrize("format_name", FORMATS)
def test_a_caller_bound_output_still_decides_the_dtype(format_name, rng):
    dense = sparse(integers(rng)).astype(np.float32)
    rhs = integers(rng)(16, 6).astype(np.float32)
    bound = np.zeros((24, 6))
    result = sparse_einsum(SPMM, A=FORMATS[format_name](dense), B=rhs, C=bound)
    assert result.dtype == np.float64 and result.shape == (24, 6)
    np.testing.assert_array_equal(result, dense @ rhs)
    assert not bound.any()  # the base is read, never written


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

    for name in ("einsum_path", "einsum", "moveaxis"):
        monkeypatch.setattr(np, name, forbidden)
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
    expected = run_unfused(plan, {name: array.copy() for name, array in tensors.items()})
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
@pytest.mark.parametrize("name", ["spmm/groupcoo", "spmm/ell", "conv", "equivariant"])
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
