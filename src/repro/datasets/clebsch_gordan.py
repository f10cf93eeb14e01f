"""Exact Clebsch–Gordan coefficients and the 4-D CG tensor of Section 6.5.

The equivariant tensor-product case study contracts a sparse 4-D tensor of
real Clebsch–Gordan (CG) coefficients against dense feature tensors.  This
module computes those coefficients exactly:

* :func:`wigner_3j` uses the Racah formula with exact integer factorials;
* :func:`clebsch_gordan` converts Wigner 3j symbols to CG coefficients;
* :func:`real_clebsch_gordan_block` changes basis to real spherical
  harmonics (the basis e3nn uses), which is where the sparsity pattern of
  the 4-D tensor comes from;
* :func:`fully_connected_cg_tensor` assembles the full ``CG[i, j, k, path]``
  tensor for all paths ``(l1, l2) -> l_out`` with ``l`` values up to
  ``l_max``, matching the paper's ``uvw`` fully connected tensor product.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import factorial, sqrt

import numpy as np

from repro.errors import ShapeError


# ---------------------------------------------------------------------------
# Wigner 3j / CG in the complex spherical-harmonic basis
# ---------------------------------------------------------------------------
def _triangle_coefficient(j1: int, j2: int, j3: int) -> float:
    return (
        factorial(j1 + j2 - j3)
        * factorial(j1 - j2 + j3)
        * factorial(-j1 + j2 + j3)
        / factorial(j1 + j2 + j3 + 1)
    )


@lru_cache(maxsize=None)
def wigner_3j(j1: int, j2: int, j3: int, m1: int, m2: int, m3: int) -> float:
    """Wigner 3j symbol for integer angular momenta (Racah formula)."""
    for j, m in ((j1, m1), (j2, m2), (j3, m3)):
        if j < 0 or abs(m) > j:
            return 0.0
    if m1 + m2 + m3 != 0:
        return 0.0
    if j3 < abs(j1 - j2) or j3 > j1 + j2:
        return 0.0

    prefactor = sqrt(
        _triangle_coefficient(j1, j2, j3)
        * factorial(j1 + m1)
        * factorial(j1 - m1)
        * factorial(j2 + m2)
        * factorial(j2 - m2)
        * factorial(j3 + m3)
        * factorial(j3 - m3)
    )
    t_min = max(0, j2 - j3 - m1, j1 - j3 + m2)
    t_max = min(j1 + j2 - j3, j1 - m1, j2 + m2)
    total = 0.0
    for t in range(t_min, t_max + 1):
        denominator = (
            factorial(t)
            * factorial(j3 - j2 + m1 + t)
            * factorial(j3 - j1 - m2 + t)
            * factorial(j1 + j2 - j3 - t)
            * factorial(j1 - m1 - t)
            * factorial(j2 + m2 - t)
        )
        total += (-1.0) ** t / denominator
    return (-1.0) ** (j1 - j2 - m3) * prefactor * total


def clebsch_gordan(j1: int, m1: int, j2: int, m2: int, j3: int, m3: int) -> float:
    """Clebsch–Gordan coefficient ``<j1 m1 j2 m2 | j3 m3>`` (complex basis)."""
    if m1 + m2 != m3:
        return 0.0
    return (-1.0) ** (j1 - j2 + m3) * sqrt(2 * j3 + 1) * wigner_3j(j1, j2, j3, m1, m2, -m3)


# ---------------------------------------------------------------------------
# Change of basis to real spherical harmonics
# ---------------------------------------------------------------------------
def _real_basis_matrix(degree: int) -> np.ndarray:
    """Unitary matrix mapping complex to real spherical harmonics of a degree.

    Rows are indexed by the real harmonic index (m = -degree..degree
    ordered), columns by the complex harmonic m.  Uses the standard
    Condon–Shortley convention, matching e3nn's real basis up to a global
    per-degree phase.
    """
    dim = 2 * degree + 1
    matrix = np.zeros((dim, dim), dtype=np.complex128)
    for m in range(-degree, degree + 1):
        row = m + degree
        if m < 0:
            matrix[row, m + degree] = 1j / sqrt(2)
            matrix[row, -m + degree] = -1j * (-1) ** m / sqrt(2)
        elif m == 0:
            matrix[row, degree] = 1.0
        else:
            matrix[row, -m + degree] = 1 / sqrt(2)
            matrix[row, m + degree] = (-1) ** m / sqrt(2)
    return matrix


def real_clebsch_gordan_block(l1: int, l2: int, l3: int) -> np.ndarray:
    """The CG block ``C[m1, m2, m3]`` in the real spherical-harmonic basis.

    A constant per ``(l1, l2, l3)``: computed once per process, and every
    caller gets its own copy of the memoized block.
    """
    return _real_clebsch_gordan_block(l1, l2, l3).copy()


@lru_cache(maxsize=None)
def _real_clebsch_gordan_block(l1: int, l2: int, l3: int) -> np.ndarray:
    if l3 < abs(l1 - l2) or l3 > l1 + l2:
        return np.zeros((2 * l1 + 1, 2 * l2 + 1, 2 * l3 + 1))
    complex_block = np.zeros((2 * l1 + 1, 2 * l2 + 1, 2 * l3 + 1), dtype=np.complex128)
    for m1 in range(-l1, l1 + 1):
        for m2 in range(-l2, l2 + 1):
            m3 = m1 + m2
            if abs(m3) <= l3:
                complex_block[m1 + l1, m2 + l2, m3 + l3] = clebsch_gordan(
                    l1, m1, l2, m2, l3, m3
                )
    u1 = _real_basis_matrix(l1)
    u2 = _real_basis_matrix(l2)
    u3 = _real_basis_matrix(l3)
    rotated = np.einsum(
        "ai,bj,ck,ijk->abc", u1, u2, np.conj(u3), complex_block, optimize=True
    )
    real_part = np.real(rotated)
    imag_part = np.imag(rotated)
    # Depending on the parity of l1 + l2 + l3 the rotated block is either
    # purely real or purely imaginary; pick whichever carries the weight.
    if np.abs(imag_part).max() > np.abs(real_part).max():
        block = imag_part
    else:
        block = real_part
    block[np.abs(block) < 1e-12] = 0.0
    return block


# ---------------------------------------------------------------------------
# The 4-D CG tensor of the fully connected tensor product
# ---------------------------------------------------------------------------
@dataclass
class CGTensor:
    """The assembled sparse CG tensor and its path bookkeeping.

    Attributes
    ----------
    l_max:
        Maximum angular momentum of the inputs and outputs.
    dense:
        The dense 4-D array ``CG[i, j, k, path]``; it is small (a few
        thousand entries) but highly sparse, which is exactly why the paper
        stores it in COO form.
    paths:
        The ``(l1, l2, l_out)`` triple of each path (the last axis).
    """

    l_max: int
    dense: np.ndarray
    paths: list[tuple[int, int, int]]

    @property
    def shape(self) -> tuple[int, ...]:
        return self.dense.shape

    @property
    def nnz(self) -> int:
        return int(np.count_nonzero(self.dense))

    @property
    def density(self) -> float:
        return self.nnz / self.dense.size

    @property
    def num_paths(self) -> int:
        return len(self.paths)

    def slot_dimension(self) -> int:
        """Total number of spherical-harmonic slots per side, sum of (2l+1)."""
        return sum(2 * degree + 1 for degree in range(self.l_max + 1))

    def to_coo_arrays(self, name: str = "CG") -> dict[str, np.ndarray]:
        """COO arrays named as in the paper: CGI, CGJ, CGK, CGL, CGV."""
        i, j, k, path = np.nonzero(self.dense)
        return {
            f"{name}I": i.astype(np.int64),
            f"{name}J": j.astype(np.int64),
            f"{name}K": k.astype(np.int64),
            f"{name}L": path.astype(np.int64),
            f"{name}V": self.dense[i, j, k, path].astype(np.float64),
        }


def fully_connected_cg_tensor(l_max: int) -> CGTensor:
    """Assemble ``CG[i, j, k, path]`` for all paths with l values up to l_max."""
    if l_max < 0:
        raise ShapeError(f"l_max must be non-negative, got {l_max}")
    slot_offset = {}
    offset = 0
    for degree in range(l_max + 1):
        slot_offset[degree] = offset
        offset += 2 * degree + 1
    total_slots = offset

    paths = [
        (l1, l2, l3)
        for l1, l2 in itertools.product(range(l_max + 1), repeat=2)
        for l3 in range(abs(l1 - l2), min(l1 + l2, l_max) + 1)
    ]
    dense = np.zeros((total_slots, total_slots, total_slots, len(paths)))
    for path_index, (l1, l2, l3) in enumerate(paths):
        block = real_clebsch_gordan_block(l1, l2, l3)
        dense[
            slot_offset[l3] : slot_offset[l3] + 2 * l3 + 1,
            slot_offset[l1] : slot_offset[l1] + 2 * l1 + 1,
            slot_offset[l2] : slot_offset[l2] + 2 * l2 + 1,
            path_index,
        ] = np.transpose(block, (2, 0, 1))
    return CGTensor(l_max=l_max, dense=dense, paths=paths)
