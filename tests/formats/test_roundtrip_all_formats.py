"""Round-trip suite: ``from_dense -> to_dense`` identity and ``nnz``
consistency for all seven formats on random, empty, and single-row inputs."""

import numpy as np
import pytest

from repro import sparse_einsum
from repro.formats import BCSR, COO, CSR, ELL, BlockCOO, BlockGroupCOO, GroupCOO

# Each entry: (format name, constructor taking one dense matrix).
# Block formats use a block height of 1 so the same three matrices
# (including the single-row one) exercise every format.
FORMATS = [
    ("COO", lambda dense: COO.from_dense(dense)),
    ("CSR", lambda dense: CSR.from_dense(dense)),
    ("ELL", lambda dense: ELL.from_dense(dense)),
    ("GroupCOO", lambda dense: GroupCOO.from_dense(dense, group_size=3)),
    ("BCSR", lambda dense: BCSR.from_dense(dense, (1, 4))),
    ("BlockCOO", lambda dense: BlockCOO.from_dense(dense, (1, 4))),
    ("BlockGroupCOO", lambda dense: BlockGroupCOO.from_dense(dense, (1, 4), group_size=2)),
]


def random_matrix(rng):
    mask = rng.random((9, 16)) < 0.3
    values = rng.standard_normal((9, 16))
    values[values == 0] = 1.0
    dense = np.where(mask, values, 0.0)
    if not dense.any():
        dense[0, 0] = 1.0
    return dense


MATRICES = {
    "random": random_matrix,
    "empty": lambda rng: np.zeros((9, 16)),
    "single_row": lambda rng: np.concatenate(
        [np.zeros((1, 4)), np.ones((1, 8)), np.zeros((1, 4))], axis=1
    ),
}


@pytest.mark.parametrize("format_name,build", FORMATS, ids=[name for name, _ in FORMATS])
@pytest.mark.parametrize("matrix_name", sorted(MATRICES))
def test_round_trip_identity(rng, format_name, build, matrix_name):
    dense = MATRICES[matrix_name](rng)
    fmt = build(dense)
    np.testing.assert_array_equal(
        fmt.to_dense(),
        dense,
        err_msg=f"{format_name} round trip failed on the {matrix_name} matrix",
    )


@pytest.mark.parametrize("format_name,build", FORMATS, ids=[name for name, _ in FORMATS])
@pytest.mark.parametrize("matrix_name", sorted(MATRICES))
def test_nnz_matches_dense_count(rng, format_name, build, matrix_name):
    dense = MATRICES[matrix_name](rng)
    fmt = build(dense)
    assert fmt.nnz == int(np.count_nonzero(dense)), (
        f"{format_name} reports nnz={fmt.nnz} on the {matrix_name} matrix, "
        f"dense has {int(np.count_nonzero(dense))}"
    )


@pytest.mark.parametrize("format_name,build", FORMATS, ids=[name for name, _ in FORMATS])
def test_shape_and_density_preserved(rng, format_name, build):
    dense = random_matrix(rng)
    fmt = build(dense)
    assert fmt.shape == dense.shape
    expected_density = np.count_nonzero(dense) / dense.size
    assert fmt.density == pytest.approx(expected_density)
    assert fmt.sparsity == pytest.approx(1.0 - expected_density)


@pytest.mark.parametrize("format_name,build", FORMATS, ids=[name for name, _ in FORMATS])
def test_with_values_keeps_pattern_and_swaps_values(rng, format_name, build):
    """The runtime's stacking hook: same pattern, scaled values."""
    dense = random_matrix(rng)
    fmt = build(dense)
    values = fmt.tensors("A")["AV"]
    doubled = fmt.with_values(values * 2.0)
    np.testing.assert_array_equal(doubled.to_dense(), dense * 2.0)


@pytest.mark.parametrize("format_name,build", FORMATS, ids=[name for name, _ in FORMATS])
@pytest.mark.filterwarnings("error::numpy.exceptions.ComplexWarning")
def test_complex128_spmm_matches_dense(rng, format_name, build):
    """No format may drop the imaginary part (not even under a warning).

    CSR and BCSR are storage-only (not fixed-length, so no Einsum runs
    on them): they get the round trip; the five executable formats also
    get the SpMM.
    """
    dense = random_matrix(rng) * (1.0 + 0.5j) + np.where(random_matrix(rng) != 0, 0.25j, 0.0)
    rhs = rng.standard_normal((16, 5)) + 1j * rng.standard_normal((16, 5))
    fmt = build(dense)
    np.testing.assert_array_equal(fmt.to_dense(), dense)
    if fmt.fixed_length:
        out = sparse_einsum("C[m,n] += A[m,k] * B[k,n]", A=fmt, B=rhs)
        np.testing.assert_allclose(out, dense @ rhs, rtol=1e-12, atol=1e-12)
