"""Property-based tests: the compiled executors agree with the reference
interpreter on randomly generated indirect Einsums."""

import numpy as np
import pytest

from repro.core.einsum import reference_execute
from repro.core.inductor.executor import run_unfused
from repro.core.insum import plan_insum
from repro.engine.specialize import SpecializedKernel
from repro.formats import COO, GroupCOO

# Declared in requirements-dev.txt; a bare machine skips this module instead of
# stopping ``pytest -x`` at collection.
hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, settings = hypothesis.given, hypothesis.settings


@st.composite
def coo_spmm_problem(draw):
    rows = draw(st.integers(min_value=1, max_value=8))
    cols = draw(st.integers(min_value=1, max_value=8))
    n = draw(st.integers(min_value=1, max_value=6))
    nnz = draw(st.integers(min_value=1, max_value=12))
    row_idx = draw(st.lists(st.integers(0, rows - 1), min_size=nnz, max_size=nnz))
    col_idx = draw(st.lists(st.integers(0, cols - 1), min_size=nnz, max_size=nnz))
    values = draw(
        st.lists(
            st.floats(min_value=-4, max_value=4, allow_nan=False, width=32),
            min_size=nnz,
            max_size=nnz,
        )
    )
    b = draw(
        st.lists(
            st.floats(min_value=-4, max_value=4, allow_nan=False, width=32),
            min_size=cols * n,
            max_size=cols * n,
        )
    )
    return {
        "C": np.zeros((rows, n)),
        "AV": np.asarray(values, dtype=np.float64),
        "AM": np.asarray(row_idx, dtype=np.int64),
        "AK": np.asarray(col_idx, dtype=np.int64),
        "B": np.asarray(b, dtype=np.float64).reshape(cols, n),
    }


@settings(max_examples=40, deadline=None)
@given(coo_spmm_problem())
def test_fused_executor_matches_reference_on_random_coo(tensors):
    expression = "C[AM[p],n] += AV[p] * B[AK[p],n]"
    plan = plan_insum(expression, tensors)
    expected = reference_execute(expression, tensors)
    fused = SpecializedKernel.build(plan, window_steps=3)
    np.testing.assert_allclose(fused.run(tensors), expected, atol=1e-8)
    np.testing.assert_allclose(run_unfused(plan, tensors), expected, atol=1e-8)


@st.composite
def random_sparse_dense_pair(draw):
    rows = draw(st.integers(min_value=2, max_value=10))
    cols = draw(st.integers(min_value=2, max_value=10))
    n = draw(st.integers(min_value=1, max_value=5))
    density = draw(st.floats(min_value=0.05, max_value=0.9))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    matrix = np.where(rng.random((rows, cols)) < density, rng.standard_normal((rows, cols)), 0.0)
    dense = rng.standard_normal((cols, n))
    return matrix, dense


@settings(max_examples=30, deadline=None)
@given(random_sparse_dense_pair(), st.integers(min_value=1, max_value=5))
def test_groupcoo_spmm_matches_numpy_for_any_group_size(pair, group_size):
    matrix, dense = pair
    fmt = GroupCOO.from_dense(matrix, group_size=group_size)
    tensors = {
        "C": np.zeros((matrix.shape[0], dense.shape[1])),
        "B": dense,
        **fmt.tensors("A"),
    }
    plan = plan_insum("C[AM[p],n] += AV[p,q] * B[AK[p,q],n]", tensors)
    fused = SpecializedKernel.build(plan, window_steps=2)
    np.testing.assert_allclose(fused.run(tensors), matrix @ dense, atol=1e-8)


@settings(max_examples=30, deadline=None)
@given(random_sparse_dense_pair())
def test_coo_roundtrip_preserves_spmv(pair):
    matrix, dense = pair
    coo = COO.from_dense(matrix)
    np.testing.assert_allclose(coo.to_dense() @ dense, matrix @ dense, atol=1e-9)
