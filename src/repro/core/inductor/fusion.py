"""Stage fusion: deciding how stages map onto launched kernels.

Stock TorchInductor fuses pointwise and reduction loops happily, but a
matrix multiplication goes through a fixed Triton template that cannot
absorb gathers or scatters, so a program containing one splits into three
kernels (gather, template matmul, scatter) and materialises its
intermediates in DRAM (Section 5.2, "Limitation").  The paper's extension
generates the matmul natively via ``ops.dot``, which restores fusion and
produces a single kernel (Figure 9).

:func:`fuse_stages` reproduces both behaviours, controlled by the config.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.inductor.config import InductorConfig
from repro.core.inductor.dot_rewrite import DotInfo
from repro.core.inductor.loop_ir import StageIR
from repro.core.triton_sim.kernel import KernelSpec, MemoryAccess


@dataclass
class FusedKernelPlan:
    """A group of stages that will execute as one kernel."""

    name: str
    stages: list[StageIR] = field(default_factory=list)

    @property
    def kinds(self) -> list[str]:
        return [s.kind for s in self.stages]


def _is_intermediate(buffer: str) -> bool:
    return buffer.startswith("tmp_")


def fuses(dot: DotInfo | None, config: InductorConfig) -> bool:
    """Whether the program compiles to one kernel.

    Either the program is pure pointwise/reduction (no matmul template
    involved), which stock TorchInductor fuses too, or our extension is
    active: the matmul is generated natively and may fuse with its gathers
    and scatter.
    """
    return dot is None or (config.native_dot and config.fuse_gather_scatter)


def fuse_stages(
    stages: list[StageIR], dot: DotInfo | None, config: InductorConfig
) -> list[FusedKernelPlan]:
    """Group stages into kernels according to the backend configuration."""
    if fuses(dot, config):
        return [FusedKernelPlan(name="fused_insum_kernel", stages=list(stages))]

    # Template path: every stage is its own kernel.
    plans = []
    for stage in stages:
        kernel_name = (
            "template_matmul" if stage.kind == "contraction" else f"{stage.kind}_kernel"
        )
        plans.append(FusedKernelPlan(name=f"{kernel_name}_{stage.name}", stages=[stage]))
    return plans


def build_kernel_spec(
    plan: FusedKernelPlan,
    dot: DotInfo | None,
    config: InductorConfig,
    dtype: str,
    tiles: dict[str, int],
) -> KernelSpec:
    """Materialise a :class:`KernelSpec` for one fused kernel group.

    When stages are fused, loads and stores of intermediate (``tmp_*``)
    buffers disappear: the data stays in registers / shared memory instead
    of round-tripping through DRAM, which is the main benefit quantified in
    the Figure 13 ablation.
    """
    fused = len(plan.stages) > 1
    produced_here = {
        store.buffer
        for stage in plan.stages
        for store in stage.stores
        if _is_intermediate(store.buffer)
    }

    loads: list[MemoryAccess] = []
    stores: list[MemoryAccess] = []
    flops = 0.0
    for stage in plan.stages:
        flops += stage.flops
        for load in stage.loads:
            if fused and load.buffer in produced_here:
                continue
            loads.append(load)
        for store in stage.stores:
            if fused and _is_intermediate(store.buffer):
                continue
            stores.append(store)

    contraction_stage = next((s for s in plan.stages if s.kind == "contraction"), None)
    has_contraction = contraction_stage is not None
    uses_tensor_core = False
    reshape_ops = 0
    compute_efficiency = None
    dram_efficiency = None
    if has_contraction and dot is not None:
        if config.native_dot:
            uses_tensor_core = dot.tensor_core_eligible(dtype)
            if uses_tensor_core and not config.lazy_broadcasting:
                # Eager broadcasting forces tl.view + tl.trans before tl.dot
                # (Figure 8b); lazy broadcasting removes both (Figure 8c).
                reshape_ops = 2
        else:
            # The hand-written template always uses Tensor Cores and has no
            # broadcasting overhead — its problem is that it cannot fuse.
            uses_tensor_core = dot.tensor_core_eligible(dtype)
            compute_efficiency = 0.78

    if fused and config.native_dot and config.fuse_gather_scatter:
        # The fully fused, autotuned kernel issues wide vectorised loads and
        # keeps gathered tiles in shared memory, sustaining a larger share
        # of peak than the stock lowering.
        compute_efficiency = 0.75
        dram_efficiency = 0.92

    tiles = dict(tiles)
    if contraction_stage is not None and dot is not None and config.native_dot:
        # Triton block dimensions must be powers of two: a reduction extent
        # like a group size of 48 is padded up to 64 at execution time.  Record
        # small reduction extents as tile sizes so the cost model applies the
        # padding factor — this is what produces the power-of-two dips in the
        # Figure 7 group-size sweep.
        for var in dot.k_vars:
            extent = contraction_stage.loop_vars.get(var)
            if extent is not None and extent <= 256:
                tiles.setdefault(f"r_{var}", int(extent))

    grid = 1
    if contraction_stage is not None:
        grid = max(1, contraction_stage.iteration_count // max(1, _tile_product(tiles)))

    description = " + ".join(plan.kinds) if fused else plan.stages[0].kind
    return KernelSpec(
        name=plan.name,
        grid=grid,
        loads=loads,
        stores=stores,
        flops=flops,
        uses_tensor_core=uses_tensor_core,
        dtype=dtype,
        reshape_transpose_ops=reshape_ops,
        tiles=tiles,
        description=description,
        compute_efficiency=compute_efficiency,
        dram_efficiency=dram_efficiency,
    )


def _tile_product(tiles: dict[str, int]) -> int:
    product = 1
    for value in tiles.values():
        product *= max(1, value)
    return product
