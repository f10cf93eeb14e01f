"""The GPU cost model runs on demand: compiling and calling never run it.

``compile_plan`` does only the work whose result executes (dot detection,
the fusion decision, specialization).  Stage lowering, the tile search,
the kernel specs and the cost report run in ``CompiledInsum.price``, once
per dtype, tile choice and device.  The config is frozen, so the plan
cached under it cannot change behind its key.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from repro import SparseEinsum, clear_plan_cache
from repro.core.inductor import InductorConfig, compile_plan
from repro.core.inductor import compile as compile_module
from repro.core.inductor.autotune import autotune_tiles
from repro.core.inductor.dot_rewrite import detect_dot
from repro.core.inductor.fusion import build_kernel_spec, fuse_stages
from repro.core.inductor.loop_ir import lower_to_stages
from repro.core.insum import plan_insum
from repro.core.triton_sim import RTX3090
from repro.core.triton_sim.profiler import estimate_total_time
from repro.datasets import build_kernel_map, generate_scene, voxelize
from repro.formats import BlockGroupCOO, GroupCOO
from repro.kernels import FullyConnectedTensorProduct, SparseConv3d, StructuredSpMM
from repro.serve import Session

SPMM = "C[m,n] += A[m,k] * B[k,n]"
MODEL = (
    "lower_to_stages",
    "fuse_stages",
    "autotune_tiles",
    "build_kernel_spec",
    "estimate_total_time",
)


@pytest.fixture
def cold():
    clear_plan_cache()
    yield
    clear_plan_cache()


@pytest.fixture
def no_model(monkeypatch, cold):
    """Every model entry point the compile module calls raises."""

    def forbidden(*args, **kwargs):
        raise AssertionError("the GPU cost model ran on the request path")

    for name in MODEL:
        monkeypatch.setattr(compile_module, name, forbidden)


@pytest.fixture
def blocked(block_sparse_matrix, rng):
    fmt = BlockGroupCOO.from_dense(block_sparse_matrix, (8, 8), group_size=2)
    tensors = {"C": np.zeros((8, 8, 16)), "B": rng.standard_normal((8, 8, 16)), **fmt.tensors("A")}
    return plan_insum("C[AM[p],bm,n] += AV[p,q,bm,bk] * B[AK[p,q],bk,n]", tensors)


# -- the request path -----------------------------------------------------------
@pytest.mark.parametrize(
    "build",
    [GroupCOO.from_dense, lambda dense: BlockGroupCOO.from_dense(dense, (8, 8))],
    ids=["groupcoo", "blockgroupcoo"],
)
def test_sparse_einsum_spmm_runs_without_the_model(no_model, build, block_sparse_matrix, rng):
    fmt = build(block_sparse_matrix)
    rhs = rng.standard_normal((block_sparse_matrix.shape[1], 5))
    op = SparseEinsum(SPMM)
    np.testing.assert_allclose(op(A=fmt, B=rhs), block_sparse_matrix @ rhs, atol=1e-10)
    np.testing.assert_allclose(op(A=fmt, B=2 * rhs), block_sparse_matrix @ (2 * rhs), atol=1e-10)


def test_sparse_conv_runs_without_the_model(no_model, rng):
    kernel_map = build_kernel_map(voxelize(generate_scene("pantry", max_points=800, rng=3), 0.2))
    conv = SparseConv3d(kernel_map, in_channels=4, out_channels=3, dtype="fp32")
    features = rng.standard_normal((kernel_map.num_voxels, 4))
    np.testing.assert_allclose(conv(features), conv.reference(features), atol=1e-10)


def test_tensor_product_runs_without_the_model(no_model):
    product = FullyConnectedTensorProduct(l_max=1, channels=3)
    x, y, w = product.random_inputs(batch=2, rng=5)
    np.testing.assert_allclose(product(x, y, w), product.reference(x, y, w), atol=1e-10)


def test_inline_session_runs_without_the_model(no_model, small_sparse_matrix, rng):
    fmt = GroupCOO.from_dense(small_sparse_matrix)
    rhs = rng.standard_normal((small_sparse_matrix.shape[1], 3))
    with Session(backend="inline") as session:
        result = session.submit(SPMM, A=fmt, B=rhs).result(30)
    np.testing.assert_allclose(np.asarray(result), small_sparse_matrix @ rhs, atol=1e-10)


# -- the model on demand --------------------------------------------------------
def test_model_matches_the_eager_formula(blocked):
    config = InductorConfig.insum()
    compiled = compile_plan(blocked, config)
    dot = detect_dot(blocked)
    kernel_plans = fuse_stages(lower_to_stages(blocked, "fp16"), dot, config)
    tuned = autotune_tiles(blocked, kernel_plans, dot, config, "fp16", RTX3090)
    kernels = [build_kernel_spec(kp, dot, config, "fp16", tuned.best_tiles) for kp in kernel_plans]
    priced = compiled.price("fp16")
    assert priced.autotune.best_tiles == tuned.best_tiles
    assert priced.kernels == kernels
    assert priced.estimated_ms == estimate_total_time(kernels, RTX3090).total_ms


def test_model_runs_once(blocked, monkeypatch):
    calls = {name: 0 for name in MODEL}
    for name in MODEL:
        original = getattr(compile_module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(compile_module, name, counted)
    compiled = compile_plan(blocked, InductorConfig.insum())
    assert calls == dict.fromkeys(MODEL, 0)
    first = compiled.estimated_ms
    for _ in range(3):
        assert compiled.estimated_ms == first
        compiled.describe()
        assert compiled.autotune.best_tiles and compiled.kernels and compiled.stages
    assert calls == dict.fromkeys(MODEL, 1)
    assert compiled.price("fp16") is compiled.price("fp16") is not compiled.price()
    assert calls == dict.fromkeys(MODEL, 2)


def test_config_is_frozen():
    config = InductorConfig.insum()
    with pytest.raises(FrozenInstanceError):
        config.lazy_broadcasting = False
    assert config == InductorConfig()


def test_equal_tile_dicts_in_either_order_share_one_pricing(blocked):
    compiled = compile_plan(blocked)
    first = compiled.price(tiles={"m": 32, "n": 64})
    assert compiled.price(tiles={"n": 64, "m": 32}) is first
    assert first.autotune.candidates_evaluated == 1


def test_an_operator_and_its_kernel_class_share_one_plan(block_sparse_matrix, rng, cold):
    """The dtype is a pricing argument: fp16 and fp32 users compile one kernel."""
    fmt = BlockGroupCOO.from_dense(block_sparse_matrix, (8, 8))
    rhs = rng.standard_normal((block_sparse_matrix.shape[1], 16)).astype(np.float32)
    compiled = SparseEinsum(SPMM).estimate(A=fmt, B=rhs)
    layer = StructuredSpMM(fmt, dtype="fp16")
    assert layer.estimate_ms(16) == compiled.price("fp16").estimated_ms
    assert layer.compiled is compiled
