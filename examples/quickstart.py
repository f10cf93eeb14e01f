"""Quickstart: sparse matrix multiplication in one line with `sparse_einsum`.

Run with:  python examples/quickstart.py
"""

import numpy as np

from repro import SparseEinsum, insum, sparse_einsum
from repro.formats import COO, GroupCOO


def main() -> None:
    rng = np.random.default_rng(0)

    # A sparse matrix (15% dense) and a dense matrix.
    sparse_matrix = np.where(rng.random((256, 192)) < 0.15, rng.standard_normal((256, 192)), 0.0)
    dense_matrix = rng.standard_normal((192, 64))

    # --- the one-liner: format-agnostic Einsum over a sparse operand -------------
    result = sparse_einsum(
        "C[m,n] += A[m,k] * B[k,n]", A=GroupCOO.from_dense(sparse_matrix), B=dense_matrix
    )
    print("sparse_einsum matches numpy:", np.allclose(result, sparse_matrix @ dense_matrix))

    # --- or let the tuner pick the format (repro.tuner, docs/FORMATS.md) -----------
    result_auto = insum(
        "C[m,n] += A[m,k] * B[k,n]", A=sparse_matrix, B=dense_matrix, format="auto"
    )
    print("format='auto' matches numpy:", np.allclose(result_auto, sparse_matrix @ dense_matrix))

    # --- the explicit indirect Einsum, as written in the paper --------------------
    coo = COO.from_dense(sparse_matrix)
    result_coo = insum(
        "C[AM[p],n] += AV[p] * B[AK[p],n]",
        C=np.zeros((256, 64)),
        AV=coo.values,
        AM=coo.coords[0],
        AK=coo.coords[1],
        B=dense_matrix,
    )
    print("indirect einsum matches numpy:", np.allclose(result_coo, sparse_matrix @ dense_matrix))

    # --- inspecting what the compiler did ------------------------------------------
    op = SparseEinsum("C[m,n] += A[m,k] * B[k,n]")
    op(A=GroupCOO.from_dense(sparse_matrix), B=dense_matrix)
    compiled = op.compiled
    print("\ncompilation summary")
    print("-------------------")
    print(compiled.describe())


if __name__ == "__main__":
    main()
