"""Tests for the Insum planner (gather / einsum / scatter decomposition)."""

import numpy as np
import pytest

from repro.core.einsum import reference_execute
from repro.core.insum import plan_insum
from repro.engine.specialize import materialize_plan
from repro.errors import LoweringError
from repro.formats import COO, GroupCOO


def coo_spmm_setup(matrix, rng, n=4):
    coo = COO.from_dense(matrix)
    return {
        "C": np.zeros((matrix.shape[0], n)),
        "AV": coo.values,
        "AM": coo.coords[0],
        "AK": coo.coords[1],
        "B": rng.standard_normal((matrix.shape[1], n)),
    }


def test_plan_structure_for_coo_spmm(small_sparse_matrix, rng):
    tensors = coo_spmm_setup(small_sparse_matrix, rng)
    plan = plan_insum("C[AM[p],n] += AV[p] * B[AK[p],n]", tensors)
    assert plan.has_gather and plan.has_scatter
    assert plan.scatter_index == "AM"
    assert plan.scatter_dim == 0
    assert [f.is_indirect for f in plan.factors] == [False, True]
    assert plan.factors[1].gather_index == "AK"
    assert plan.factors[1].subscripts == ["p", "n"]
    assert plan.output_subscripts == ["p", "n"]
    assert plan.einsum_equation == "a,ab->ab"


def test_plan_executes_correctly(small_sparse_matrix, rng):
    tensors = coo_spmm_setup(small_sparse_matrix, rng)
    plan = plan_insum("C[AM[p],n] += AV[p] * B[AK[p],n]", tensors)
    out = materialize_plan(plan).run(tensors)
    np.testing.assert_allclose(out, small_sparse_matrix @ tensors["B"], atol=1e-10)


def test_plan_grouped_spmm_has_reduction(medium_sparse_matrix, rng):
    fmt = GroupCOO.from_dense(medium_sparse_matrix, group_size=4)
    tensors = {
        "C": np.zeros((64, 8)),
        "B": rng.standard_normal((96, 8)),
        **fmt.tensors("A"),
    }
    plan = plan_insum("C[AM[p],n] += AV[p,q] * B[AK[p,q],n]", tensors)
    assert plan.info.reduction_vars == ["q"]
    out = materialize_plan(plan).run(tensors)
    np.testing.assert_allclose(out, medium_sparse_matrix @ tensors["B"], atol=1e-10)


def test_plan_no_scatter_for_direct_output(rng):
    a = rng.standard_normal((4, 6))
    b = rng.standard_normal((6, 3))
    plan = plan_insum(
        "C[m,n] += A[m,k] * B[k,n]", {"C": np.zeros((4, 3)), "A": a, "B": b}
    )
    assert not plan.has_scatter and not plan.has_gather
    np.testing.assert_allclose(
        materialize_plan(plan).run(dict(C=np.zeros((4, 3)), A=a, B=b)), a @ b, atol=1e-12
    )


def test_plan_multidim_scatter_index(rng):
    # Output scatter through a 2-D index array (grouped sparse convolution form).
    outputs = np.array([[0, 2], [1, 1]])
    values = rng.standard_normal((2, 2))
    tensors = {"Out": np.zeros((3, 4)), "MAPX": outputs, "V": values,
               "In": rng.standard_normal((2, 2, 4))}
    plan = plan_insum("Out[MAPX[p,q],m] += V[p,q] * In[p,q,m]", tensors)
    out = materialize_plan(plan).run(tensors)
    expected = reference_execute("Out[MAPX[p,q],m] += V[p,q] * In[p,q,m]", tensors)
    np.testing.assert_allclose(out, expected, atol=1e-12)


def test_plan_contraction_flops_positive(small_sparse_matrix, rng):
    tensors = coo_spmm_setup(small_sparse_matrix, rng)
    plan = plan_insum("C[AM[p],n] += AV[p] * B[AK[p],n]", tensors)
    assert plan.contraction_flops == 2 * plan.info.iteration_space_size


def test_plan_describe_mentions_stages(small_sparse_matrix, rng):
    tensors = coo_spmm_setup(small_sparse_matrix, rng)
    text = plan_insum("C[AM[p],n] += AV[p] * B[AK[p],n]", tensors).describe()
    assert "gather" in text and "scatter" in text and "einsum" in text


def test_multiple_indirect_axes_in_one_factor_rejected(rng):
    tensors = {
        "C": np.zeros(3),
        "V": np.ones(3),
        "I": np.array([0, 1, 2]),
        "J": np.array([0, 1, 2]),
        "B": rng.standard_normal((3, 3)),
    }
    with pytest.raises(LoweringError, match="one indirect axis"):
        plan_insum("C[I[p]] += V[p] * B[I[p],J[p]]", tensors)


def test_nested_indirection_rejected(rng):
    tensors = {
        "C": np.zeros(3),
        "V": np.ones(3),
        "I": np.array([0, 1, 2]),
        "J": np.array([0, 1, 2]),
        "B": np.ones(3),
    }
    with pytest.raises(LoweringError, match="nested"):
        plan_insum("C[p] += V[p] * B[I[J[p]]]", tensors)


def test_multiple_indirect_output_axes_rejected(rng):
    tensors = {
        "C": np.zeros((3, 3)),
        "V": np.ones(2),
        "I": np.array([0, 1]),
        "J": np.array([1, 2]),
    }
    with pytest.raises(LoweringError, match="one indirect output"):
        plan_insum("C[I[p],J[p]] += V[p]", tensors)


def test_gathered_elements_counted(small_sparse_matrix, rng):
    tensors = coo_spmm_setup(small_sparse_matrix, rng)
    plan = plan_insum("C[AM[p],n] += AV[p] * B[AK[p],n]", tensors)
    nnz = tensors["AV"].shape[0]
    assert plan.factors[1].gathered_elements == nnz * 4
