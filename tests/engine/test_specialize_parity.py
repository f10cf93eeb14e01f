"""Specialized-closure parity against the loop-nest reference interpreter.

The engine's acceptance bar: for every executable format, accumulate and
non-accumulate statements, and a range of chunk schedules, the
:class:`~repro.engine.specialize.SpecializedKernel` must match the
obviously-correct reference interpreter on the same operands.
"""

import math

import numpy as np
import pytest

from repro import insum, sparse_einsum
from repro.core.einsum import reference_execute
from repro.core.inductor.config import InductorConfig
from repro.core.insum import plan_insum
from repro.engine.specialize import _WINDOW_BYTES, SpecializedKernel, specialize_plan
from repro.formats import COO, ELL, BlockCOO, BlockGroupCOO, GroupCOO
from repro.runtime.stacked import StackedSparse

#: These suites are about the step list: they run with the C emitter unavailable
#: (``tests/engine/test_emitters.py`` is the differential net over both).
pytestmark = pytest.mark.usefixtures("steps_only")


def _spmm_tensors(fmt, rng, n_rows, n_cols, width=4, accumulate=True):
    base = rng.standard_normal((n_rows, width)) if accumulate else np.zeros((n_rows, width))
    return {
        "C": base,
        "B": rng.standard_normal((n_cols, width)),
        **fmt.tensors("A"),
    }


#: Forced steps (runs, for a run-windowed plan) per window; ``None`` is the
#: byte policy (one window here — one per run length for a run-windowed plan).
WINDOW_SCHEDULES = [1, 3, 128, None]


def executed_windows(kernel, tensors):
    """How many windows one ``run`` walks, and its result.

    A run-windowed plan cuts its windows per pattern at run time, so they are
    counted where they execute: at the first step of the window list.
    """
    program, walked = kernel._program, []
    first = program.per_window[0]
    counting = first._replace(run=lambda regs, w: (walked.append(w), first.run(regs, w)))
    lists = [program.per_window, program.per_window_direct or []]
    for steps in lists:
        steps[:1] = [counting] * bool(steps)
    try:
        result = kernel.run(tensors)
    finally:
        for steps in lists:
            steps[:1] = [first] * bool(steps)
    assert walked == list(range(len(walked)))
    return len(walked), result


def run_lengths(index):
    """``{run length: number of target rows with that many updates}``."""
    _, counts = np.unique(index, return_counts=True)
    lengths, rows = np.unique(counts, return_counts=True)
    return dict(zip(lengths.tolist(), rows.tolist()))


def assert_specialized_matches_reference(expression, tensors):
    plan = plan_insum(expression, tensors)
    expected = reference_execute(expression, tensors)
    for window_steps in WINDOW_SCHEDULES:
        kernel = SpecializedKernel.build(plan, window_steps=window_steps)
        result = kernel.run(tensors)
        np.testing.assert_allclose(result, expected, atol=1e-9)
        # Repeated execution reuses the memoized scatter plans — results
        # must be bit-identical call to call.
        np.testing.assert_array_equal(kernel.run(tensors), result)


def test_coo_spmm_specialized(small_sparse_matrix, rng):
    coo = COO.from_dense(small_sparse_matrix)
    tensors = {
        "C": np.zeros((8, 4)),
        "AV": coo.values,
        "AM": coo.coords[0],
        "AK": coo.coords[1],
        "B": rng.standard_normal((12, 4)),
    }
    assert_specialized_matches_reference("C[AM[p],n] += AV[p] * B[AK[p],n]", tensors)


def test_non_accumulate_statement_specialized(small_sparse_matrix, rng):
    coo = COO.from_dense(small_sparse_matrix)
    tensors = {
        "C": rng.standard_normal((8, 4)),  # existing values must be ignored by '='
        "AV": coo.values,
        "AM": coo.coords[0],
        "AK": coo.coords[1],
        "B": rng.standard_normal((12, 4)),
    }
    assert_specialized_matches_reference("C[AM[p],n] = AV[p] * B[AK[p],n]", tensors)


def test_accumulate_into_existing_output_specialized(small_sparse_matrix, rng):
    coo = COO.from_dense(small_sparse_matrix)
    tensors = {
        "C": rng.standard_normal((8, 4)),
        "AV": coo.values,
        "AM": coo.coords[0],
        "AK": coo.coords[1],
        "B": rng.standard_normal((12, 4)),
    }
    assert_specialized_matches_reference("C[AM[p],n] += AV[p] * B[AK[p],n]", tensors)


def test_groupcoo_spmm_specialized(small_sparse_matrix, rng):
    fmt = GroupCOO.from_dense(small_sparse_matrix, group_size=2)
    tensors = {
        "C": np.zeros((8, 4)),
        "B": rng.standard_normal((12, 4)),
        **fmt.tensors("A"),
    }
    assert_specialized_matches_reference("C[AM[p],n] += AV[p,q] * B[AK[p,q],n]", tensors)


def test_direct_output_no_scatter_specialized(rng):
    # Dense-output contraction: the chunk variable is a plain LHS axis.
    tensors = {
        "C": np.zeros((6, 5)),
        "X": rng.standard_normal((6, 7)),
        "Y": rng.standard_normal((7, 5)),
    }
    assert_specialized_matches_reference("C[i,j] += X[i,k] * Y[k,j]", tensors)


@pytest.mark.parametrize("format_cls", [COO, ELL, GroupCOO])
def test_sparse_einsum_parity_unstructured_formats(format_cls, medium_sparse_matrix, rng):
    """End-to-end: the public API (which routes through the engine) matches dense."""
    fmt = format_cls.from_dense(medium_sparse_matrix)
    dense_rhs = rng.standard_normal((96, 8))
    result = sparse_einsum("C[m,n] += A[m,k] * B[k,n]", A=fmt, B=dense_rhs)
    np.testing.assert_allclose(result, medium_sparse_matrix @ dense_rhs, atol=1e-9)


@pytest.mark.parametrize("format_cls", [BlockCOO, BlockGroupCOO])
def test_sparse_einsum_parity_block_formats(format_cls, rng):
    dense = np.zeros((32, 32))
    for block in range(4):
        dense[block * 8 : block * 8 + 8, block * 8 : block * 8 + 8] = rng.standard_normal((8, 8))
    fmt = format_cls.from_dense(dense, (8, 8))
    dense_rhs = rng.standard_normal((32, 6))
    result = sparse_einsum("C[m,n] += A[m,k] * B[k,n]", A=fmt, B=dense_rhs)
    np.testing.assert_allclose(result, dense @ dense_rhs, atol=1e-9)


def test_stacked_sparse_parity(medium_sparse_matrix, rng):
    mask = medium_sparse_matrix != 0
    stack = np.where(mask[None], rng.standard_normal((5, 64, 96)), 0.0)
    stacked = StackedSparse.from_dense(stack, GroupCOO, group_size=4)
    dense_rhs = rng.standard_normal((96, 8))
    result = sparse_einsum("C[s,m,n] += A[s,m,k] * B[k,n]", A=stacked, B=dense_rhs)
    np.testing.assert_allclose(result, stack @ dense_rhs, atol=1e-9)


@pytest.mark.parametrize("chunk_size", [1, 7, 64, 4096])
def test_chunk_size_invariance_through_config(chunk_size, medium_sparse_matrix, rng):
    """The streamed window's size must not change results."""
    tensors = _spmm_tensors(COO.from_dense(medium_sparse_matrix), rng, 64, 96, width=8)
    plan = plan_insum("C[AI0[p],n] += AV[p] * B[AI1[p],n]", tensors)
    kernel = SpecializedKernel.build(plan, window_steps=chunk_size)
    assert kernel.window_steps == chunk_size and kernel.run_variable == "p"
    # Run-windowed: ``chunk_size`` whole runs of one length per window.
    windows, result = executed_windows(kernel, tensors)
    assert windows == sum(
        math.ceil(rows / chunk_size) for rows in run_lengths(tensors["AI0"]).values()
    )
    expected = tensors["C"] + medium_sparse_matrix @ tensors["B"]
    np.testing.assert_allclose(result, expected, atol=1e-9)


def test_specialize_plan_reports_schedule(small_sparse_matrix, rng):
    coo = COO.from_dense(small_sparse_matrix)
    tensors = {
        "C": np.zeros((8, 4)),
        "AV": coo.values,
        "AM": coo.coords[0],
        "AK": coo.coords[1],
        "B": rng.standard_normal((12, 4)),
    }
    plan = plan_insum("C[AM[p],n] += AV[p] * B[AK[p],n]", tensors)
    single = specialize_plan(plan, InductorConfig())
    chunked = SpecializedKernel.build(plan, window_steps=4)
    # The rule that decided the lowering is the first line of the log.
    header = "over the runs of equal AM[p] (40 B per update + 32 B per run)"
    assert f"specialized: windows of {_WINDOW_BYTES} B {header}" in single.describe()
    assert f"specialized: windows of 4 run(s) {header}" in chunked.describe()
    assert executed_windows(single, tensors)[0] == len(run_lengths(coo.coords[0]))
    assert executed_windows(chunked, tensors)[0] >= executed_windows(single, tensors)[0]
    # The step list is the rest: gather, dot and store, by tensor name.
    for step in ("take(AV, cut,", "take(B,", "matmul(", "out[rows] += ", "out[rows] = "):
        assert step in single.describe()
    assert "einsum" not in single.describe() and "segment_add" not in single.describe()
    # A plan outside the rule reports its static schedule.
    spmv = dict(tensors, C=np.zeros(8), B=tensors["B"][:, 0])
    plan = plan_insum("C[AM[p]] += AV[p] * B[AK[p]]", spmv)
    windows = math.ceil(coo.values.size / 4)
    described = SpecializedKernel.build(plan, window_steps=4).describe()
    assert f"specialized: {windows} window(s) of 4 steps over 'p'" in described
    assert "specialized: 1 window(s)" in specialize_plan(plan, InductorConfig()).describe()
    assert "(in place)" in described and "segment_add(" in described


def test_a_plan_whose_footprint_fits_is_one_window(medium_sparse_matrix, rng):
    """The byte policy: temporaries under ``_WINDOW_BYTES`` never split."""
    coo = COO.from_dense(medium_sparse_matrix)
    tensors = _spmm_tensors(coo, rng, 64, 96, width=4)
    plan = plan_insum("C[AI0[p],n] += AV[p] * B[AI1[p],n]", tensors)
    kernel = SpecializedKernel.build(plan)
    # Per step: a row of the partial, the value, a gathered row — float64.
    assert kernel.per_step_bytes == (4 + 1 + 4) * 8 and kernel.per_run_bytes == 4 * 8
    assert coo.values.size * kernel.per_step_bytes <= _WINDOW_BYTES
    # Run-windowed: runs of different lengths never share a window.
    assert kernel.windows == [] and kernel.window_steps is None
    assert executed_windows(kernel, tensors)[0] == len(run_lengths(coo.coords[0]))

    ell = ELL.from_dense(medium_sparse_matrix)
    tensors = _spmm_tensors(ell, rng, 64, 96, width=4)
    kernel = SpecializedKernel.build(plan_insum("C[m,n] += AV[m,q] * B[AK[m,q],n]", tensors))
    assert 64 * kernel.per_step_bytes <= _WINDOW_BYTES
    assert kernel.windows == [slice(0, 64)] and kernel.run_variable is None


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_windows_are_sized_in_bytes_of_the_operand_dtype(dtype, rng):
    """``len(windows) == ceil(extent / max(1, _WINDOW_BYTES // per_step_bytes))``."""
    rows, cols, width = 700, 512, 256
    dense = np.where(rng.random((rows, cols)) < 0.02, 1.0, 0.0).astype(dtype)
    dense[:, 0] = 1.0  # no empty row
    fmt = ELL.from_dense(dense)
    tensors = {
        "C": np.zeros((rows, width), dtype=dtype),
        "B": rng.standard_normal((cols, width)).astype(dtype),
        **fmt.tensors("A"),
    }
    plan = plan_insum("C[m,n] += AV[m,q] * B[AK[m,q],n]", tensors)
    kernel = SpecializedKernel.build(plan)
    slots = plan.info.extents["q"]
    assert kernel.per_step_bytes == (width + slots + slots * width) * np.dtype(dtype).itemsize
    steps = max(1, _WINDOW_BYTES // kernel.per_step_bytes)
    assert kernel.window_steps == steps and 1 < steps < rows
    assert len(kernel.windows) == math.ceil(rows / steps)
    assert {w.stop - w.start for w in kernel.windows[:-1]} == {steps}
    assert kernel.windows[0].start == 0 and kernel.windows[-1].stop == rows
    tolerance = 1e-4 if dtype == np.float32 else 1e-10
    np.testing.assert_allclose(
        kernel.run(tensors), dense @ tensors["B"], rtol=tolerance, atol=tolerance
    )


def test_a_step_larger_than_the_window_still_takes_one_step(rng):
    """``max(1, ...)``: the policy never builds an empty window."""
    tensors = {
        "C": np.zeros((3, 8)),
        "X": rng.standard_normal((3, _WINDOW_BYTES // 8)),
        "Y": rng.standard_normal((_WINDOW_BYTES // 8, 8)),
    }
    plan = plan_insum("C[i,j] += X[i,k] * Y[k,j]", tensors)
    kernel = SpecializedKernel.build(plan)
    assert kernel.per_step_bytes > _WINDOW_BYTES
    assert kernel.window_steps == 1 and len(kernel.windows) == 3
    np.testing.assert_allclose(kernel.run(tensors), tensors["X"] @ tensors["Y"], atol=1e-9)


@pytest.mark.parametrize(
    "format_cls,expression",
    [
        (COO, "C[AI0[p],n] += AV[p] * B[AI1[p],n]"),
        (GroupCOO, "C[AM[p],n] += AV[p,q] * B[AK[p,q],n]"),
        (ELL, "C[m,n] += AV[m,q] * B[AK[m,q],n]"),
    ],
)
def test_results_hold_across_window_schedules(format_cls, expression, medium_sparse_matrix, rng):
    """One window, two windows or many."""
    fmt = format_cls.from_dense(medium_sparse_matrix)
    tensors = _spmm_tensors(fmt, rng, 64, 96, width=8)
    plan = plan_insum(expression, tensors)
    expected = reference_execute(expression, tensors)
    extent = plan.info.extents[plan.output_subscripts[0]]

    whole = SpecializedKernel.build(plan)
    windows, result = executed_windows(whole, tensors)
    np.testing.assert_allclose(result, expected, atol=1e-9)
    if whole.run_variable is None:  # two halves, and one step per window
        assert windows == len(whole.windows) == 1
        landmarks = {2, extent}
    else:  # one window per run length, and one run (one non-empty row) per window
        lengths = run_lengths(tensors[plan.scatter_index])
        assert windows == len(lengths)
        landmarks = {len(lengths), sum(lengths.values())}

    window_counts = set()
    for window_steps in (1, 2, 16, 128, -(-extent // 2)):
        kernel = SpecializedKernel.build(plan, window_steps=window_steps)
        windows, result = executed_windows(kernel, tensors)
        window_counts.add(windows)
        np.testing.assert_allclose(result, expected, atol=1e-9)
    assert landmarks <= window_counts and len(window_counts) >= 3


# ---------------------------------------------------------------------------
# Empty leading extent: an all-zero sparse operand
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("bind_output", [False, True], ids=["fresh", "accumulate"])
@pytest.mark.parametrize(
    "format_name", ["coo", "groupcoo", "ell", "blockcoo", "blockgroupcoo", "auto"]
)
def test_all_zero_operand_matches_dense_einsum(format_name, bind_output, rng):
    """Zero nonzeros means zero windows; the (accumulated) base comes back."""
    dense = np.zeros((8, 8))
    rhs = rng.standard_normal((8, 4))
    bound = {"C": rng.standard_normal((8, 4))} if bind_output else {}
    result = insum("C[m,n] += A[m,k] * B[k,n]", A=dense, B=rhs, format=format_name, **bound)
    expected = bound.get("C", 0.0) + np.einsum("mk,kn->mn", dense, rhs)
    np.testing.assert_array_equal(result, expected)
    assert result.dtype == np.float64 and result.shape == (8, 4)


def test_empty_extent_builds_zero_windows(rng):
    coo = COO.from_dense(np.zeros((8, 12)))
    tensors = _spmm_tensors(coo, rng, 8, 12)
    plan = plan_insum("C[AI0[p],n] += AV[p] * B[AI1[p],n]", tensors)
    for window_steps in (128, None):
        kernel = SpecializedKernel.build(plan, window_steps=window_steps)
        assert kernel.windows == []
        np.testing.assert_array_equal(kernel.run(tensors), tensors["C"])
