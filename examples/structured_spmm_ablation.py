"""Structured (block-sparse) SpMM and the compiler ablation of Figure 13.

Builds a block-sparse matrix, runs it through the full extended compiler and
through the ablation configurations (stock TorchInductor-like scheduling,
Tensor Core fusion without lazy broadcasting), and prints the modelled GPU
cost of each — alongside the TorchBSR and dense-matmul baselines.

Run with:  python examples/structured_spmm_ablation.py
"""

import numpy as np

from repro import InductorConfig, SparseEinsum
from repro.analysis import format_table
from repro.baselines import DenseMatmul, TorchBSRSpMM
from repro.datasets import random_block_sparse_matrix
from repro.formats import BlockGroupCOO, COO, GroupCOO
from repro.kernels import StructuredSpMM


SIZE = 1024
BLOCK = (32, 32)
SPARSITY = 0.9


def main() -> None:
    rng = np.random.default_rng(0)
    matrix = random_block_sparse_matrix(SIZE, BLOCK, 1.0 - SPARSITY, rng=0).astype(np.float64)
    dense = rng.standard_normal((SIZE, 128))

    # Execute the application kernel and check its numerics.
    op = StructuredSpMM(matrix, BLOCK, dtype="fp16")
    result = op(dense)
    print("structured SpMM matches numpy:", np.allclose(result, matrix @ dense, atol=1e-6))
    print(f"modelled GPU time: {op.modeled_ms:.4f} ms "
          f"({op.compiled.num_kernels} fused kernel, group size {op.format.group_size})")

    # Ablation: format and compiler configurations, evaluated by the cost model.
    placeholder = np.zeros((SIZE, SIZE), dtype=np.float32)
    configurations = {
        "COO (stock backend)": (
            COO.from_dense(matrix),
            InductorConfig.torchinductor_default(),
        ),
        "GroupCOO (stock backend)": (
            GroupCOO.from_dense(matrix, group_size=16),
            InductorConfig.torchinductor_default(),
        ),
        "BlockGroupCOO (stock backend)": (
            BlockGroupCOO.from_dense(matrix, BLOCK, group_size=4),
            InductorConfig.torchinductor_default(),
        ),
        "BlockGroupCOO + TC fusion": (
            BlockGroupCOO.from_dense(matrix, BLOCK, group_size=4),
            InductorConfig.insum_tensor_core_only(),
        ),
        "BlockGroupCOO + TC + lazy broadcasting": (
            BlockGroupCOO.from_dense(matrix, BLOCK, group_size=4),
            InductorConfig.insum(),
        ),
    }
    rows = []
    for name, (fmt, config) in configurations.items():
        compiled = SparseEinsum(StructuredSpMM.expression, config=config).estimate(
            A=fmt, B=placeholder
        )
        priced = compiled.price("fp16")
        rows.append([name, priced.num_kernels, priced.estimated_ms])
    rows.append(
        ["TorchBSR baseline", 1, TorchBSRSpMM(matrix, BLOCK, dtype="fp16").modeled_ms(placeholder)]
    )
    rows.append(["Dense matmul baseline", 1, DenseMatmul("fp16").modeled_ms(matrix, placeholder)])
    print()
    print(format_table(["configuration", "kernels", "modeled_ms"], rows,
                       title=f"Ablation at {SIZE}x{SIZE}, {int(SPARSITY*100)}% block sparsity",
                       float_format="{:.4f}"))


if __name__ == "__main__":
    main()
