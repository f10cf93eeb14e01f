"""Tests for the COO, CSR, and ELL formats."""

import numpy as np
import pytest

from repro.errors import FormatError, ShapeError
from repro.formats import COO, CSR, ELL


# -- COO ---------------------------------------------------------------------------
def test_coo_roundtrip(small_sparse_matrix):
    coo = COO.from_dense(small_sparse_matrix)
    np.testing.assert_allclose(coo.to_dense(), small_sparse_matrix)
    assert coo.nnz == np.count_nonzero(small_sparse_matrix)


def test_coo_higher_rank_roundtrip(rng):
    dense = (rng.random((3, 4, 5)) < 0.2) * rng.standard_normal((3, 4, 5))
    coo = COO.from_dense(dense)
    np.testing.assert_allclose(coo.to_dense(), dense)
    assert coo.index_count() == coo.nnz * 3


def test_coo_duplicate_coordinates_accumulate():
    coo = COO((3,), np.array([1.0, 2.0]), (np.array([1, 1]),))
    np.testing.assert_allclose(coo.to_dense(), [0.0, 3.0, 0.0])


def test_coo_validation_errors():
    with pytest.raises(ShapeError):
        COO((3, 3), np.ones((2, 2)), (np.zeros(2, int), np.zeros(2, int)))
    with pytest.raises(ShapeError):
        COO((3, 3), np.ones(2), (np.zeros(2, int),))
    with pytest.raises(ShapeError):
        COO((3, 3), np.ones(2), (np.array([0, 5]), np.zeros(2, int)))


def test_coo_sorted_by_axis(small_sparse_matrix):
    coo = COO.from_dense(small_sparse_matrix).sorted_by_axis(1)
    assert np.all(np.diff(coo.coords[1]) >= 0)
    np.testing.assert_allclose(coo.to_dense(), small_sparse_matrix)


def test_coo_density_and_repr(small_sparse_matrix):
    coo = COO.from_dense(small_sparse_matrix)
    assert 0 < coo.density < 1
    assert coo.sparsity == pytest.approx(1 - coo.density)
    assert "COO" in repr(coo)


def test_coo_memory_bytes(small_sparse_matrix):
    coo = COO.from_dense(small_sparse_matrix)
    assert coo.memory_bytes(4, 4) == coo.nnz * 4 + coo.nnz * 2 * 4


def _assert_self_consistent(rewrite, coo, index_names):
    """Every tensor a rewrite's accesses name is in its own ``tensors``."""
    named = {rewrite.value_access.tensor}
    named.update(sub.exprs[0].tensor for sub in rewrite.substitutions.values())
    assert named == set(rewrite.tensors)
    assert set(rewrite.substitutions) == set(index_names)
    for axis, index_name in enumerate(index_names):
        coord = rewrite.tensors[rewrite.substitutions[index_name].exprs[0].tensor]
        assert coord is coo.coords[axis]


def test_coo_rewrite_plan_leaves_the_instance_alone(small_sparse_matrix):
    """What a COO calls its arrays must not depend on the last expression."""
    coo = COO.from_dense(small_sparse_matrix)
    before = coo.tensors("A")
    assert list(before) == ["AV", "AI0", "AI1"]
    for index_names in (["m", "k"], ["i", "j"]):
        rewrite = coo.rewrite_plan("A", index_names)
        _assert_self_consistent(rewrite, coo, index_names)
        assert list(rewrite.tensors) == ["AV", *(f"A{name.upper()}" for name in index_names)]
        after = coo.tensors("A")
        assert list(after) == list(before)
        assert all(after[key] is before[key] for key in before)


def test_coo_rewrite_plan_from_two_threads(small_sparse_matrix):
    """Two expressions over one instance: no rewrite may name a tensor the
    other thread's expression introduced."""
    import sys
    import threading

    coo = COO.from_dense(small_sparse_matrix)
    broken: list[tuple] = []

    def worker(index_names):
        for _ in range(20000):
            rewrite = coo.rewrite_plan("A", index_names)
            named = {sub.exprs[0].tensor for sub in rewrite.substitutions.values()}
            if not named <= set(rewrite.tensors):
                broken.append((index_names, sorted(named), sorted(rewrite.tensors)))
                return

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=worker, args=(names,)) for names in (["m", "k"], ["i", "j"])
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert broken == []


def test_coo_rank_mismatch_in_rewrite(small_sparse_matrix):
    coo = COO.from_dense(small_sparse_matrix)
    with pytest.raises(FormatError):
        coo.rewrite_plan("A", ["i"])


# -- CSR -----------------------------------------------------------------------------
def test_csr_roundtrip(small_sparse_matrix):
    csr = CSR.from_dense(small_sparse_matrix)
    np.testing.assert_allclose(csr.to_dense(), small_sparse_matrix)
    np.testing.assert_array_equal(
        csr.row_occupancy(), np.count_nonzero(small_sparse_matrix, axis=1)
    )


def test_csr_from_coo_and_back(small_sparse_matrix):
    coo = COO.from_dense(small_sparse_matrix)
    csr = CSR.from_coo(coo)
    np.testing.assert_allclose(csr.to_dense(), small_sparse_matrix)
    np.testing.assert_allclose(csr.to_coo().to_dense(), small_sparse_matrix)


def test_csr_is_not_fixed_length(small_sparse_matrix):
    csr = CSR.from_dense(small_sparse_matrix)
    assert not csr.fixed_length
    with pytest.raises(FormatError, match="fixed-length"):
        csr.rewrite_plan("A", ["m", "k"])


def test_csr_validation_errors():
    with pytest.raises(ShapeError):
        CSR((2, 2, 2), np.array([0, 1, 2]), np.array([0, 1]), np.ones(2))
    with pytest.raises(ShapeError):
        CSR((2, 2), np.array([0, 1]), np.array([0, 1]), np.ones(2))
    with pytest.raises(ShapeError):
        CSR((2, 2), np.array([0, 2, 1]), np.array([0, 1]), np.ones(2))
    with pytest.raises(ShapeError):
        CSR((2, 2), np.array([0, 1, 2]), np.array([0, 7]), np.ones(2))


def test_csr_tensors_naming(small_sparse_matrix):
    csr = CSR.from_dense(small_sparse_matrix)
    assert set(csr.tensors("A")) == {"AP", "AK", "AV"}


# -- ELL --------------------------------------------------------------------------------
def test_ell_roundtrip(small_sparse_matrix):
    ell = ELL.from_dense(small_sparse_matrix)
    np.testing.assert_allclose(ell.to_dense(), small_sparse_matrix)
    assert ell.width == int(np.count_nonzero(small_sparse_matrix, axis=1).max())


def test_ell_padding_ratio(small_sparse_matrix):
    ell = ELL.from_dense(small_sparse_matrix)
    assert 0 <= ell.padding_ratio < 1
    assert ell.value_count() == small_sparse_matrix.shape[0] * ell.width


def test_ell_empty_matrix():
    ell = ELL.from_dense(np.zeros((4, 5)))
    assert ell.nnz == 0 and ell.width == 0
    np.testing.assert_allclose(ell.to_dense(), 0.0)


def test_ell_rewrite_plan_requires_matrix(small_sparse_matrix):
    ell = ELL.from_dense(small_sparse_matrix)
    with pytest.raises(FormatError):
        ell.rewrite_plan("A", ["i", "j", "k"])


def test_ell_validation_errors():
    with pytest.raises(ShapeError):
        ELL((4,), np.zeros((4, 2)), np.zeros((4, 2), int))
    with pytest.raises(ShapeError):
        ELL((4, 5), np.zeros((3, 2)), np.zeros((3, 2), int))
    with pytest.raises(ShapeError):
        ELL((4, 5), np.zeros((4, 2)), np.zeros((4, 3), int))
