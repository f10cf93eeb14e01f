"""Tests for the executor, windowed and as one whole-extent window."""

import dataclasses

import numpy as np
import pytest

from repro.core.einsum import reference_execute
from repro.core.insum import plan_insum
from repro.engine.specialize import SpecializedKernel, materialize_plan
from repro.errors import LoweringError
from repro.formats import COO, BlockGroupCOO, GroupCOO


def run_windowed(plan, tensors, window_steps=128):
    """The fused executor streaming windows of exactly ``window_steps`` steps."""
    kernel = SpecializedKernel.build(plan, window_steps=window_steps)
    return kernel.run(tensors)


def assert_fused_matches_reference(expression, tensors, window_steps=3):
    plan = plan_insum(expression, tensors)
    expected = reference_execute(expression, tensors)
    fused = run_windowed(plan, tensors, window_steps=window_steps)
    whole = materialize_plan(plan).run(tensors)
    np.testing.assert_allclose(fused, expected, atol=1e-9)
    np.testing.assert_allclose(whole, expected, atol=1e-9)


def test_coo_spmm_all_executors(small_sparse_matrix, rng):
    coo = COO.from_dense(small_sparse_matrix)
    tensors = {
        "C": np.zeros((8, 4)),
        "AV": coo.values,
        "AM": coo.coords[0],
        "AK": coo.coords[1],
        "B": rng.standard_normal((12, 4)),
    }
    assert_fused_matches_reference("C[AM[p],n] += AV[p] * B[AK[p],n]", tensors)


def test_groupcoo_spmm_all_executors(small_sparse_matrix, rng):
    fmt = GroupCOO.from_dense(small_sparse_matrix, group_size=2)
    tensors = {
        "C": np.zeros((8, 4)),
        "B": rng.standard_normal((12, 4)),
        **fmt.tensors("A"),
    }
    assert_fused_matches_reference("C[AM[p],n] += AV[p,q] * B[AK[p,q],n]", tensors)


def test_blockgroupcoo_spmm_all_executors(block_sparse_matrix, rng):
    fmt = BlockGroupCOO.from_dense(block_sparse_matrix, (8, 8), group_size=2)
    tensors = {
        "C": np.zeros((8, 8, 4)),
        "B": rng.standard_normal((8, 8, 4)),
        **fmt.tensors("A"),
    }
    assert_fused_matches_reference(
        "C[AM[p],bm,n] += AV[p,q,bm,bk] * B[AK[p,q],bk,n]", tensors, window_steps=2
    )


def test_direct_output_executors(rng):
    tensors = {
        "C": np.zeros((5, 3)),
        "A": rng.standard_normal((5, 7)),
        "B": rng.standard_normal((7, 3)),
    }
    assert_fused_matches_reference("C[m,n] += A[m,k] * B[k,n]", tensors, window_steps=2)


def test_assignment_semantics_in_fused_executor(rng):
    existing = rng.standard_normal(6)
    tensors = {"C": existing.copy(), "A": rng.standard_normal(6)}
    plan = plan_insum("C[i] = A[i]", tensors)
    out = run_windowed(plan, tensors, window_steps=2)
    np.testing.assert_allclose(out, tensors["A"], atol=1e-12)


def test_fused_executor_does_not_mutate_output(rng):
    original = np.zeros((5, 3))
    tensors = {
        "C": original,
        "A": rng.standard_normal((5, 7)),
        "B": rng.standard_normal((7, 3)),
    }
    plan = plan_insum("C[m,n] += A[m,k] * B[k,n]", tensors)
    run_windowed(plan, tensors)
    np.testing.assert_allclose(original, 0.0)


def test_chunk_size_one_and_large(small_sparse_matrix, rng):
    coo = COO.from_dense(small_sparse_matrix)
    tensors = {
        "C": np.zeros((8, 4)),
        "AV": coo.values,
        "AM": coo.coords[0],
        "AK": coo.coords[1],
        "B": rng.standard_normal((12, 4)),
    }
    plan = plan_insum("C[AM[p],n] += AV[p] * B[AK[p],n]", tensors)
    expected = reference_execute("C[AM[p],n] += AV[p] * B[AK[p],n]", tensors)
    for steps in (1, 1000):
        result = run_windowed(plan, tensors, window_steps=steps)
        np.testing.assert_allclose(result, expected, atol=1e-9)


def test_scatter_on_middle_axis(rng):
    # Z[b, I[p], w] += V[p] * X[b, p, w]  -- scatter dim is 1, chunk var is b.
    tensors = {
        "Z": np.zeros((3, 4, 2)),
        "I": np.array([0, 3, 3]),
        "V": rng.standard_normal(3),
        "X": rng.standard_normal((3, 3, 2)),
    }
    assert_fused_matches_reference("Z[b,I[p],w] += V[p] * X[b,p,w]", tensors, window_steps=2)


def test_chunk_variable_missing_from_the_lhs_is_a_lowering_error(rng):
    tensors = {
        "Z": np.zeros((8, 4)),
        "I": rng.integers(0, 8, size=(5, 2)),
        "J": rng.integers(0, 12, size=(5, 2)),
        "V": rng.standard_normal((5, 2, 3)),
        "X": rng.standard_normal((12, 3, 4)),
    }
    # A scatter index over two variables: the plan keeps its static windows.
    plan = plan_insum("Z[I[p,q],n] += V[p,q,k] * X[J[p,q],k,n]", tensors)
    # No planner output leads with a reduction variable; a hand-built plan can.
    doctored = dataclasses.replace(plan, output_subscripts=["k", "p", "q", "n"])
    with pytest.raises(LoweringError, match="does not appear on the left-hand side"):
        run_windowed(doctored, tensors, window_steps=1)


def test_spconv_style_three_factor_fused(rng):
    num_voxels, pairs, channels, out_channels = 6, 9, 3, 4
    tensors = {
        "Out": np.zeros((num_voxels, out_channels)),
        "MAPX": rng.integers(0, num_voxels, size=pairs),
        "MAPY": rng.integers(0, num_voxels, size=pairs),
        "MAPZ": rng.integers(0, 2, size=pairs),
        "MAPV": np.ones(pairs),
        "In": rng.standard_normal((num_voxels, channels)),
        "Weight": rng.standard_normal((2, channels, out_channels)),
    }
    assert_fused_matches_reference(
        "Out[MAPX[p],m] += MAPV[p] * In[MAPY[p],c] * Weight[MAPZ[p],c,m]", tensors, window_steps=4
    )
