"""The GPU cost model runs on demand: compiling and calling never run it.

``compile_plan`` does only the work whose result executes (dot detection,
stage lowering and fusion, specialization).  The tile search, the kernel
specs and the cost report are computed on first access to ``autotune``,
``kernels`` or ``cost``, once, against the configuration as it read when
the plan was compiled.
"""

from __future__ import annotations

from dataclasses import replace

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
from repro.core.triton_sim.profiler import estimate_total_time
from repro.datasets import build_kernel_map, generate_scene, voxelize
from repro.formats import BlockGroupCOO, GroupCOO
from repro.kernels import FullyConnectedTensorProduct, SparseConv3d
from repro.serve import Session

SPMM = "C[m,n] += A[m,k] * B[k,n]"
MODEL = ("autotune_tiles", "build_kernel_spec", "estimate_total_time")


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
    config = InductorConfig.insum(dtype="fp16")
    compiled = compile_plan(blocked, config)
    dot = detect_dot(blocked)
    kernel_plans = fuse_stages(lower_to_stages(blocked, config), dot, config)
    tuned = autotune_tiles(blocked, kernel_plans, dot, config)
    kernels = [build_kernel_spec(kp, dot, config, tuned.best_tiles) for kp in kernel_plans]
    assert compiled.autotune.best_tiles == tuned.best_tiles
    assert compiled.kernels == kernels
    assert compiled.estimated_ms == estimate_total_time(kernels, config.device).total_ms


def test_model_runs_once(blocked, monkeypatch):
    calls = {name: 0 for name in MODEL}
    for name in MODEL:
        original = getattr(compile_module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(compile_module, name, counted)
    compiled = compile_plan(blocked, InductorConfig.insum(dtype="fp16"))
    assert calls == dict.fromkeys(MODEL, 0)
    first = compiled.estimated_ms
    for _ in range(3):
        assert compiled.estimated_ms == first
        compiled.describe()
        compiled.source()
        assert compiled.autotune.best_tiles and compiled.kernels
    assert calls == {"autotune_tiles": 1, "build_kernel_spec": 1, "estimate_total_time": 1}


def test_mutating_the_config_after_compiling_changes_nothing(blocked):
    def config():
        return InductorConfig.insum(dtype="fp16", tile_sizes={"m": 8, "n": 8, "k": 8})

    expected = compile_plan(blocked, config())
    compiled = compile_plan(blocked, mutated := config())
    mutated.tile_sizes["m"] = 16
    mutated.device = replace(mutated.device, dram_bandwidth_gbps=1.0)
    assert compiled.estimated_ms == expected.estimated_ms
    assert compiled.autotune.best_tiles == {"m": 8, "n": 8, "k": 8}


def test_mutating_an_operator_config_leaves_its_cached_plan(block_sparse_matrix, rng, cold):
    fmt = BlockGroupCOO.from_dense(block_sparse_matrix, (8, 8))
    rhs = rng.standard_normal((block_sparse_matrix.shape[1], 16)).astype(np.float32)
    expected = SparseEinsum(SPMM, config=InductorConfig.insum(dtype="fp16")).estimate(A=fmt, B=rhs)
    clear_plan_cache()
    config = InductorConfig.insum(dtype="fp16")
    compiled = SparseEinsum(SPMM, config=config).estimate(A=fmt, B=rhs)
    config.device = replace(config.device, dram_bandwidth_gbps=1.0)
    assert compiled.estimated_ms == expected.estimated_ms
