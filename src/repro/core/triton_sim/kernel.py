"""Kernel descriptions consumed by the cost model."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class MemoryAccess:
    """One logical memory stream of a kernel (a load or a store).

    Attributes
    ----------
    buffer:
        Name of the tensor being accessed.
    elements:
        Total number of elements transferred over the kernel's lifetime.
    element_bytes:
        Size of one element.
    indirect:
        True when the addresses come from another tensor's values (a
        gather or scatter), which pays the device's indirect-access
        penalty.
    contiguous_elements:
        For indirect accesses, how many contiguous elements each indirect
        address fetches (a gathered row of length N is one address but N
        contiguous elements, so it stays close to streaming bandwidth).
    unique_elements:
        For indirect accesses, the number of distinct elements in the
        gathered tensor (its footprint).  When the same rows are gathered
        repeatedly with reasonable locality, caches keep the DRAM traffic
        close to this footprint rather than to the total request volume;
        ``None`` disables the cap (no reuse assumed).
    atomic:
        True for atomic-add stores (scatter accumulation).
    """

    buffer: str
    elements: float
    element_bytes: int = 4
    indirect: bool = False
    contiguous_elements: float = 1.0
    unique_elements: float | None = None
    atomic: bool = False

    @property
    def total_bytes(self) -> float:
        return self.elements * self.element_bytes

    @property
    def indirect_requests(self) -> float:
        """Number of distinct indirect addresses issued."""
        if not self.indirect:
            return 0.0
        return self.elements / max(self.contiguous_elements, 1.0)


@dataclass
class KernelSpec:
    """A complete description of one generated (simulated) Triton kernel."""

    name: str
    grid: int = 1
    loads: list[MemoryAccess] = field(default_factory=list)
    stores: list[MemoryAccess] = field(default_factory=list)
    flops: float = 0.0
    uses_tensor_core: bool = False
    dtype: str = "fp32"
    #: Number of tl.view / tl.trans reshaping operations per program caused
    #: by eager broadcasting; zero under lazy broadcasting (Section 5.2.3).
    reshape_transpose_ops: int = 0
    #: Tile sizes chosen by the tiler/autotuner, keyed by loop-variable role.
    tiles: dict[str, int] = field(default_factory=dict)
    #: Free-form notes displayed in reports (e.g. "gather+dot+scatter fused").
    description: str = ""
    #: Optional per-kernel overrides of the device's achievable efficiency.
    #: Hand-tuned vendor libraries (cuBLAS, cuSPARSE) sustain a larger
    #: fraction of peak than generated kernels; compiler baselines without
    #: shared-memory tiling sustain far less.  ``None`` uses the device default.
    compute_efficiency: float | None = None
    dram_efficiency: float | None = None
    #: Multiplier on the memory/compute time modelling load imbalance across
    #: programs (1.0 = perfectly balanced).  Row-split CSR kernels on skewed
    #: degree distributions pay this; row-swizzling (Sputnik) reduces it.
    imbalance: float = 1.0

    # -- aggregate helpers -----------------------------------------------------
    @property
    def coalesced_load_bytes(self) -> float:
        return sum(a.total_bytes for a in self.loads if not a.indirect)

    @property
    def indirect_loads(self) -> list[MemoryAccess]:
        return [a for a in self.loads if a.indirect]

    @property
    def store_bytes(self) -> float:
        return sum(a.total_bytes for a in self.stores if not a.atomic)

    @property
    def atomic_count(self) -> float:
        return sum(a.elements for a in self.stores if a.atomic)

    @property
    def indirect_request_count(self) -> float:
        """Total gather/scatter requests — the paper's F(g) when summed."""
        loads = sum(a.indirect_requests for a in self.loads)
        stores = sum(a.elements for a in self.stores if a.indirect and not a.atomic)
        atomics = sum(a.indirect_requests for a in self.stores if a.indirect)
        return loads + stores + atomics


@dataclass
class KernelTimeBreakdown:
    """Per-kernel estimated time, split by bottleneck."""

    kernel: str
    dram_ms: float
    indirect_ms: float
    compute_ms: float
    atomic_ms: float
    overhead_ms: float
    total_ms: float

    def as_dict(self) -> dict[str, float]:
        return {
            "dram_ms": self.dram_ms,
            "indirect_ms": self.indirect_ms,
            "compute_ms": self.compute_ms,
            "atomic_ms": self.atomic_ms,
            "overhead_ms": self.overhead_ms,
            "total_ms": self.total_ms,
        }
