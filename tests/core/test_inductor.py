"""Tests for the Inductor-like backend: dot rewrite, fusion, tiling, autotune, kernel specs."""

import numpy as np
import pytest

from repro.core.inductor import (
    InductorConfig,
    compile_plan,
    detect_dot,
    fuse_stages,
    lower_to_stages,
)
from repro.core.inductor.autotune import autotune_tiles
from repro.core.inductor.fusion import build_kernel_spec
from repro.core.inductor.tiling import candidate_tiles, default_tiles
from repro.core.triton_sim import RTX3090
from repro.core.einsum import reference_execute
from repro.core.insum import Insum, plan_insum
from repro.engine.specialize import SpecializedKernel
from repro.formats import BlockGroupCOO, COO, GroupCOO


BLOCKED = "C[AM[p],bm,n] += AV[p,q,bm,bk] * B[AK[p,q],bk,n]"


@pytest.fixture
def blocked_plan(block_sparse_matrix, rng):
    fmt = BlockGroupCOO.from_dense(block_sparse_matrix, (8, 8), group_size=2)
    tensors = {
        "C": np.zeros((8, 8, 16)),
        "B": rng.standard_normal((8, 8, 16)),
        **fmt.tensors("A"),
    }
    return plan_insum(BLOCKED, tensors), tensors


@pytest.fixture
def coo_plan(small_sparse_matrix, rng):
    coo = COO.from_dense(small_sparse_matrix)
    tensors = {
        "C": np.zeros((8, 4)),
        "AV": coo.values,
        "AM": coo.coords[0],
        "AK": coo.coords[1],
        "B": rng.standard_normal((12, 4)),
    }
    return plan_insum("C[AM[p],n] += AV[p] * B[AK[p],n]", tensors), tensors


# -- configuration -----------------------------------------------------------------
def test_config_presets():
    full = InductorConfig.insum()
    assert full.native_dot and full.fuse_gather_scatter and full.lazy_broadcasting
    tc_only = InductorConfig.insum_tensor_core_only()
    assert tc_only.native_dot and not tc_only.lazy_broadcasting
    stock = InductorConfig.torchinductor_default()
    assert not stock.native_dot and not stock.fuse_gather_scatter


def test_price_validation(blocked_plan):
    compiled = compile_plan(blocked_plan[0])
    with pytest.raises(ValueError):
        compiled.price("fp8")
    with pytest.raises(ValueError):
        compiled.price(tiles={"m": 0})


def test_config_has_no_specialize_switch():
    with pytest.raises(TypeError):
        InductorConfig(specialize=False)


# -- dot detection --------------------------------------------------------------------
def test_dot_detected_for_blocked_spmm(blocked_plan):
    plan, _ = blocked_plan
    dot = detect_dot(plan)
    assert dot is not None
    assert dot.m_vars == ["bm"] and dot.n_vars == ["n"]
    assert set(dot.k_vars) == {"q", "bk"}
    assert dot.batch_vars == ["p"]
    assert dot.tensor_core_eligible("fp16")
    assert "dot[" in dot.describe()


def test_no_dot_for_plain_coo_spmm(coo_plan):
    plan, _ = coo_plan
    assert detect_dot(plan) is None


def test_matvec_shape_not_tensor_core_eligible(medium_sparse_matrix, rng):
    fmt = GroupCOO.from_dense(medium_sparse_matrix, group_size=4)
    tensors = {"C": np.zeros((64, 8)), "B": rng.standard_normal((96, 8)), **fmt.tensors("A")}
    plan = plan_insum("C[AM[p],n] += AV[p,q] * B[AK[p,q],n]", tensors)
    assert detect_dot(plan) is None  # AV has no output var of its own -> matvec


# -- lowering and fusion ----------------------------------------------------------------
def test_lowering_produces_three_stage_kinds(blocked_plan):
    plan, _ = blocked_plan
    stages = lower_to_stages(plan, "fp16")
    assert [s.kind for s in stages] == ["gather", "contraction", "scatter"]
    gather = stages[0]
    assert any(load.indirect for load in gather.loads)
    assert stages[1].flops > 0


def test_fusion_single_kernel_with_extension(blocked_plan):
    plan, _ = blocked_plan
    config = InductorConfig.insum()
    stages = lower_to_stages(plan, "fp16")
    plans = fuse_stages(stages, detect_dot(plan), config)
    assert len(plans) == 1
    assert plans[0].kinds == ["gather", "contraction", "scatter"]


def test_fusion_splits_with_template_matmul(blocked_plan):
    plan, _ = blocked_plan
    config = InductorConfig.torchinductor_default()
    stages = lower_to_stages(plan, "fp16")
    plans = fuse_stages(stages, detect_dot(plan), config)
    assert len(plans) == 3


def test_pointwise_program_fuses_even_without_extension(coo_plan):
    plan, _ = coo_plan
    config = InductorConfig.torchinductor_default()
    stages = lower_to_stages(plan, "fp32")
    plans = fuse_stages(stages, detect_dot(plan), config)
    assert len(plans) == 1  # no matmul template involved -> stock fusion works


def test_fused_kernel_drops_intermediate_traffic(blocked_plan):
    plan, _ = blocked_plan
    config = InductorConfig.insum()
    stages = lower_to_stages(plan, "fp16")
    kernel_plans = fuse_stages(stages, detect_dot(plan), config)
    tiles = {"m": 8, "n": 8, "k": 8}
    fused = build_kernel_spec(kernel_plans[0], detect_dot(plan), config, "fp16", tiles)
    buffers = {load.buffer for load in fused.loads} | {store.buffer for store in fused.stores}
    assert not any(name.startswith("tmp_") for name in buffers)


# -- tiling and autotuning -------------------------------------------------------------------
def test_default_tiles_2d_for_dot(blocked_plan):
    plan, _ = blocked_plan
    config = InductorConfig.insum()
    tiles = default_tiles(plan, detect_dot(plan), config)
    assert set(tiles) == {"m", "n", "k"}


def test_default_tiles_flattened_without_dot(coo_plan):
    plan, _ = coo_plan
    config = InductorConfig.insum()
    assert set(default_tiles(plan, detect_dot(plan), config)) == {"yx"}


def test_candidate_tiles_are_powers_of_two(blocked_plan):
    plan, _ = blocked_plan
    config = InductorConfig.insum()
    for tiles in candidate_tiles(plan, detect_dot(plan), config, "fp16", RTX3090):
        for value in tiles.values():
            assert value & (value - 1) == 0


def test_autotune_picks_a_candidate(blocked_plan):
    plan, _ = blocked_plan
    config = InductorConfig.insum()
    stages = lower_to_stages(plan, "fp16")
    kernel_plans = fuse_stages(stages, detect_dot(plan), config)
    result = autotune_tiles(plan, kernel_plans, detect_dot(plan), config, "fp16", RTX3090)
    assert result.candidates_evaluated >= 1
    assert result.best_cost_ms > 0
    assert result.modeled_seconds > 0
    assert set(result.best_tiles) == {"m", "n", "k"}


def test_autotune_respects_explicit_tiles(blocked_plan):
    plan, _ = blocked_plan
    tiles = {"m": 8, "n": 8, "k": 8}
    config = InductorConfig.insum()
    stages = lower_to_stages(plan, "fp16")
    kernel_plans = fuse_stages(stages, detect_dot(plan), config)
    result = autotune_tiles(plan, kernel_plans, detect_dot(plan), config, "fp16", RTX3090, tiles)
    assert result.best_tiles == tiles
    assert result.candidates_evaluated == 1
    # The priced kernel carries them, and one program per output tile.
    kernel = compile_plan(plan, config).price("fp16", tiles).kernels[0]
    assert {role: kernel.tiles[role] for role in tiles} == tiles
    assert kernel.grid > 1


# -- end-to-end compile ---------------------------------------------------------------------
def test_compile_plan_fused_vs_unfused_cost(blocked_plan):
    plan, tensors = blocked_plan
    fused = compile_plan(plan, InductorConfig.insum())
    unfused = compile_plan(plan, InductorConfig.torchinductor_default())
    assert fused.is_fused and not unfused.is_fused
    fused, unfused = fused.price("fp16"), unfused.price("fp16")
    assert fused.num_kernels == 1 and unfused.num_kernels == 3
    assert fused.estimated_ms < unfused.estimated_ms
    assert unfused.cost.intermediate_bytes > 0
    assert fused.cost.intermediate_bytes == 0


def test_compiled_run_matches_reference(blocked_plan, block_sparse_matrix):
    plan, tensors = blocked_plan
    compiled = compile_plan(plan, InductorConfig.insum())
    out = compiled.run(tensors)
    expected = block_sparse_matrix @ tensors["B"].reshape(64, 16)
    np.testing.assert_allclose(out.reshape(64, 16), expected, atol=1e-8)


def test_every_schedule_runs_its_specialized_kernel(blocked_plan, coo_plan):
    """Every preset has a kernel; the unfused schedule's is one whole-extent window."""
    presets = (
        InductorConfig.insum,
        InductorConfig.insum_tensor_core_only,
        InductorConfig.torchinductor_default,
    )
    fused_count = 0
    for plan, tensors in (blocked_plan, coo_plan):
        expected = reference_execute(plan.statement, tensors)
        for preset in presets:
            compiled = compile_plan(plan, preset())
            assert isinstance(compiled.specialized, SpecializedKernel)
            np.testing.assert_allclose(compiled.run(tensors), expected, atol=1e-9)
            fused_count += compiled.is_fused
    assert fused_count == 5  # only the blocked matmul under stock TorchInductor splits

    plan, tensors = blocked_plan
    unfused = compile_plan(plan, InductorConfig.torchinductor_default()).specialized
    eager = Insum(BLOCKED, backend="eager").compile(**tensors)
    extent, expected = plan.info.extents["p"], reference_execute(BLOCKED, tensors)
    for kernel in (unfused, eager):
        described = kernel.describe()
        # A scattering plan keeps its windows over runs of equal targets.
        assert described.startswith(f"specialized: windows of {extent} run(s) over the runs")
        assert "  emitter: steps (window_steps forced)" in described
        np.testing.assert_allclose(kernel.run(tensors), expected, atol=1e-9)


def test_lazy_broadcasting_reduces_cost(blocked_plan):
    plan, _ = blocked_plan
    lazy = compile_plan(plan, InductorConfig.insum()).price("fp16")
    eager = compile_plan(plan, InductorConfig.insum_tensor_core_only()).price("fp16")
    assert lazy.estimated_ms <= eager.estimated_ms
    assert eager.kernels[0].reshape_transpose_ops > 0
    assert lazy.kernels[0].reshape_transpose_ops == 0


def test_describe_and_cost_summary(blocked_plan):
    plan, _ = blocked_plan
    compiled = compile_plan(plan, InductorConfig.insum())
    text = compiled.describe()
    assert "kernel" in text and "tiles" in text
    assert "total" in compiled.cost.summary()


# -- the kernel spec: what a generated Triton kernel would contain ----------------------
def test_fused_kernel_has_dot_and_atomic_scatter(blocked_plan):
    """tl.dot, no tl.view/tl.trans, and a tl.atomic_add scatter, in one kernel."""
    plan, _ = blocked_plan
    (kernel,) = compile_plan(plan, InductorConfig.insum()).price("fp16").kernels
    assert kernel.description == "gather + contraction + scatter"
    assert kernel.uses_tensor_core
    assert kernel.reshape_transpose_ops == 0
    assert [store.atomic for store in kernel.stores] == [True]


def test_eager_broadcasting_kernel_reshapes(blocked_plan):
    """Eager broadcasting puts a tl.view and a tl.trans before tl.dot."""
    plan, _ = blocked_plan
    (kernel,) = compile_plan(plan, InductorConfig.insum_tensor_core_only()).price("fp16").kernels
    assert kernel.uses_tensor_core
    assert kernel.reshape_transpose_ops == 2


def test_kernel_without_dot_is_a_mac_body(coo_plan):
    """No dot pattern: a CUDA-core multiply-accumulate, never tl.dot."""
    plan, _ = coo_plan
    (kernel,) = compile_plan(plan, InductorConfig.insum()).price("fp16").kernels
    assert not kernel.uses_tensor_core
    assert kernel.reshape_transpose_ops == 0
    assert [store.atomic for store in kernel.stores] == [True]
