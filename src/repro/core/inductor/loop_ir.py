"""Loop-level stages: the backend's analogue of InductorIR.

The Insum plan always has the shape *gather → contraction → scatter*
(Section 5.1), so the loop-level IR is represented as a list of
:class:`StageIR` records, one per stage, each carrying the loop variables
it iterates and the memory streams it touches.  The fusion pass then
decides how stages map onto kernels, and the profiler turns kernels into
estimated runtimes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.insum.planner import FactorPlan, InsumPlan
from repro.core.triton_sim.kernel import MemoryAccess


@dataclass
class StageIR:
    """One loop nest of the lowered program.

    Attributes
    ----------
    name:
        Unique stage name (``gather_B``, ``contraction``, ``scatter_C``).
    kind:
        ``"gather"``, ``"contraction"``, or ``"scatter"``.
    loop_vars:
        The loop variables this stage iterates, with their extents.
    loads / stores:
        Memory streams, including intermediate buffers (named ``tmp_*``)
        that exist only when the stage runs as its own kernel.
    flops:
        Floating-point work of the stage (only the contraction has any).
    factor:
        For gather stages, the factor plan being gathered.
    """

    name: str
    kind: str
    loop_vars: dict[str, int]
    loads: list[MemoryAccess] = field(default_factory=list)
    stores: list[MemoryAccess] = field(default_factory=list)
    flops: float = 0.0
    factor: FactorPlan | None = None

    @property
    def iteration_count(self) -> int:
        count = 1
        for extent in self.loop_vars.values():
            count *= extent
        return count


def _dtype_bytes(dtype: str) -> int:
    return {"fp16": 2, "fp32": 4}[dtype]


def _extent_product(variables, extents: dict[str, int]) -> int:
    product = 1
    for var in variables:
        product *= extents[var]
    return product


def _gather_contiguity(factor: FactorPlan, plan: InsumPlan) -> float:
    """Contiguous elements fetched per indirect address of a gather.

    Gathering ``B[AK[p,q], n]`` fetches a whole row of ``B`` per address, so
    the contiguous run is the product of the extents of the axes *after*
    the gathered axis.  Gathering along the last axis fetches single
    elements, which is the worst case for the memory system.
    """
    access = factor.access
    axis = factor.gather_axis
    assert axis is not None
    trailing = 1
    shape = plan.info.tensor_shapes[access.tensor]
    for later_axis in range(axis + 1, len(shape)):
        trailing *= shape[later_axis]
    return float(trailing)


def lower_to_stages(plan: InsumPlan, dtype: str) -> list[StageIR]:
    """Lower an Insum plan to gather / contraction / scatter stages of ``dtype`` values."""
    extents = plan.info.extents
    value_bytes = _dtype_bytes(dtype)
    index_bytes = 4
    stages: list[StageIR] = []

    # -- gather stages -------------------------------------------------------
    factor_buffer_names: list[str] = []
    for position, factor in enumerate(plan.factors):
        source_name = factor.access.tensor
        if not factor.is_indirect:
            factor_buffer_names.append(source_name)
            continue
        tmp_name = f"tmp_{source_name}_{position}"
        factor_buffer_names.append(tmp_name)
        index_size = math.prod(plan.info.tensor_shapes[factor.gather_index])
        source_size = math.prod(plan.info.tensor_shapes[source_name])
        gathered = factor.gathered_elements
        stage = StageIR(
            name=f"gather_{source_name}",
            kind="gather",
            loop_vars={v: extents[v] for v in factor.subscripts},
            loads=[
                MemoryAccess(
                    buffer=factor.gather_index,
                    elements=index_size,
                    element_bytes=index_bytes,
                ),
                MemoryAccess(
                    buffer=source_name,
                    elements=gathered,
                    element_bytes=value_bytes,
                    indirect=True,
                    contiguous_elements=_gather_contiguity(factor, plan),
                    unique_elements=source_size,
                ),
            ],
            stores=[
                MemoryAccess(buffer=tmp_name, elements=gathered, element_bytes=value_bytes)
            ],
            factor=factor,
        )
        stages.append(stage)

    # -- contraction stage --------------------------------------------------------
    contraction_loads = []
    for factor, buffer_name in zip(plan.factors, factor_buffer_names):
        elements = _extent_product(factor.subscripts, extents)
        contraction_loads.append(
            MemoryAccess(buffer=buffer_name, elements=elements, element_bytes=value_bytes)
        )
    output_elements = _extent_product(plan.output_subscripts, extents)
    contraction_store_buffer = "tmp_out" if plan.has_scatter else plan.info.output_name
    stages.append(
        StageIR(
            name="contraction",
            kind="contraction",
            loop_vars={v: extents[v] for v in plan.info.loop_vars},
            loads=contraction_loads,
            stores=[
                MemoryAccess(
                    buffer=contraction_store_buffer,
                    elements=output_elements,
                    element_bytes=value_bytes,
                )
            ],
            flops=float(plan.contraction_flops),
        )
    )

    # -- scatter stage -------------------------------------------------------------
    if plan.has_scatter:
        index_size = math.prod(plan.info.tensor_shapes[plan.scatter_index])
        stages.append(
            StageIR(
                name=f"scatter_{plan.info.output_name}",
                kind="scatter",
                loop_vars={v: extents[v] for v in plan.output_subscripts},
                loads=[
                    MemoryAccess(
                        buffer="tmp_out", elements=output_elements, element_bytes=value_bytes
                    ),
                    MemoryAccess(
                        buffer=plan.scatter_index,
                        elements=index_size,
                        element_bytes=index_bytes,
                    ),
                ],
                stores=[
                    MemoryAccess(
                        buffer=plan.info.output_name,
                        elements=output_elements,
                        element_bytes=value_bytes,
                        indirect=True,
                        atomic=True,
                    )
                ],
            )
        )
    return stages
