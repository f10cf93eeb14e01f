"""The modelled GPU times, pinned exactly.

The analytical RTX-3090 model backs every figure harness, so moving code
around it must not move a single float.  These values were taken before
the dtype, tile and device settings left ``InductorConfig`` for
``CompiledInsum.price``; :func:`_priced` reads them through whichever of
the two interfaces the tree has, so this file checks the move from both
sides.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro import InductorConfig, SparseEinsum, clear_plan_cache
from repro.core.inductor import compile_plan
from repro.core.insum import plan_insum
from repro.datasets import build_kernel_map, generate_scene, random_block_sparse_matrix, voxelize
from repro.formats import COO, BlockGroupCOO, GroupCOO
from repro.kernels import FullyConnectedTensorProduct, SparseConv3d

SPMM = "C[m,n] += A[m,k] * B[k,n]"
BLOCKED = "C[AM[p],bm,n] += AV[p,q,bm,bk] * B[AK[p,q],bk,n]"
SIZE, BLOCK = 256, (32, 32)


@pytest.fixture(autouse=True)
def cold():
    clear_plan_cache()
    yield
    clear_plan_cache()


def _priced(compile_with, config, dtype="fp32", tiles=None) -> float:
    """``estimated_ms`` of ``compile_with(config)`` priced at ``dtype`` and ``tiles``."""
    compiled = compile_with(config)
    if hasattr(compiled, "price"):
        return compiled.price(dtype, tiles).estimated_ms
    # Before the move the config itself carried the two settings.
    return compile_with(replace(config, dtype=dtype, tile_sizes=tiles)).estimated_ms


@pytest.fixture(scope="module")
def matrix():
    return random_block_sparse_matrix(SIZE, BLOCK, 0.25, rng=0)


@pytest.fixture(scope="module")
def blocked_plan(matrix):
    fmt = BlockGroupCOO.from_dense(matrix, BLOCK, group_size=4)
    tensors = {
        "C": np.zeros((SIZE // 32, 32, 64)),
        "B": np.zeros((SIZE // 32, 32, 64)),
        **fmt.tensors("A"),
    }
    return plan_insum(BLOCKED, tensors)


def test_default_compile_plan_price(blocked_plan):
    assert compile_plan(blocked_plan).estimated_ms == 0.006238124805648458


def test_fig13_ablation_points_in_fp16(matrix):
    """Figure 13's five rows, on a 256x256 matrix at a quarter block density."""
    dense = np.zeros((SIZE, SIZE), dtype=np.float32)
    stock = InductorConfig.torchinductor_default()
    eager = InductorConfig.insum_tensor_core_only()
    full = InductorConfig.insum()
    blocked = BlockGroupCOO.from_dense(matrix, BLOCK, group_size=4)
    points = [
        (COO.from_dense(matrix), stock),
        (GroupCOO.from_dense(matrix, group_size=16), stock),
        (blocked, stock),
        (blocked, eager),
        (blocked, full),
    ]

    def estimate(fmt):
        return lambda config: SparseEinsum(SPMM, config=config).estimate(A=fmt, B=dense)

    priced = [_priced(estimate(fmt), config, "fp16") for fmt, config in points]
    assert priced == [
        0.01583187035897436,
        0.0073939790769230775,
        0.019793214897938664,
        0.00645376943696767,
        0.006333653997770345,
    ]


def test_sparse_conv_price():
    kernel_map = build_kernel_map(voxelize(generate_scene("pantry", max_points=2000, rng=3), 0.1))
    assert SparseConv3d(kernel_map, 32, 32).estimate_ms() == 0.006630438607209216


def test_tensor_product_price():
    assert FullyConnectedTensorProduct(2, 16).estimate_ms(64) == 0.008233477101449276


def test_explicit_tiles_price(blocked_plan):
    tiles = {"m": 16, "n": 32, "k": 16}
    priced = _priced(lambda c: compile_plan(blocked_plan, c), InductorConfig(), "fp16", tiles)
    assert priced == 0.006133479692307693
