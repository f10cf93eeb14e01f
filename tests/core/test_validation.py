"""Tests for semantic validation and extent inference."""

import numpy as np
import pytest

from repro import insum
from repro.core.einsum import parse_einsum, validate
from repro.errors import EinsumValidationError, IndexOutOfBoundsError


def coo_spmm_tensors(rng):
    dense = (rng.random((6, 9)) < 0.4) * rng.standard_normal((6, 9))
    rows, cols = np.nonzero(dense)
    return {
        "C": np.zeros((6, 5)),
        "AV": dense[rows, cols],
        "AM": rows,
        "AK": cols,
        "B": rng.standard_normal((9, 5)),
    }


def test_extent_inference(rng):
    tensors = coo_spmm_tensors(rng)
    info = validate(parse_einsum("C[AM[p],n] += AV[p] * B[AK[p],n]"), tensors)
    assert info.extents["p"] == tensors["AV"].shape[0]
    assert info.extents["n"] == 5
    assert info.output_name == "C"
    assert info.output_vars == ["p", "n"]
    assert info.reduction_vars == []
    assert info.scatter_vars == ["p"]
    assert info.gather_tensors == ["AM", "AK"]


def test_iteration_space_size(rng):
    tensors = coo_spmm_tensors(rng)
    info = validate(parse_einsum("C[AM[p],n] += AV[p] * B[AK[p],n]"), tensors)
    assert info.iteration_space_size == tensors["AV"].shape[0] * 5
    assert info.loop_vars == ["p", "n"]


def test_missing_tensor_binding(rng):
    tensors = coo_spmm_tensors(rng)
    tensors.pop("AK")
    with pytest.raises(EinsumValidationError, match="AK"):
        validate(parse_einsum("C[AM[p],n] += AV[p] * B[AK[p],n]"), tensors)


def test_inconsistent_extents(rng):
    with pytest.raises(EinsumValidationError, match="inconsistent"):
        validate(
            parse_einsum("C[i] += A[i] * B[i]"),
            {"C": np.zeros(4), "A": np.zeros(4), "B": np.zeros(5)},
        )


def test_rank_mismatch(rng):
    with pytest.raises(EinsumValidationError, match="dimensions"):
        validate(parse_einsum("C[i] += A[i,j]"), {"C": np.zeros(4), "A": np.zeros(4)})


def test_non_integer_index_tensor(rng):
    with pytest.raises(EinsumValidationError, match="non-integer"):
        validate(
            parse_einsum("C[I[p]] += V[p]"),
            {"C": np.zeros(4), "I": np.array([0.5, 1.5]), "V": np.ones(2)},
        )


def test_out_of_bounds_index_values(rng):
    """``validate`` reads shapes only; the executor rejects the value it loads."""
    tensors = {"C": np.zeros(3), "I": np.array([0, 5]), "V": np.ones(2)}
    assert validate(parse_einsum("C[I[p]] += V[p]"), tensors).extents["p"] == 2
    with pytest.raises(IndexOutOfBoundsError, match="out of"):
        insum("C[I[p]] += V[p]", **tensors)


def test_constant_index_bounds(rng):
    with pytest.raises(EinsumValidationError, match="constant index"):
        validate(parse_einsum("C[i] += A[7, i]"), {"C": np.zeros(3), "A": np.zeros((4, 3))})


def test_lhs_only_variable_rejected(rng):
    with pytest.raises(EinsumValidationError, match="left-hand side"):
        validate(
            parse_einsum("C[i,j] += A[i]"),
            {"C": np.zeros((3, 4)), "A": np.zeros(3)},
        )
