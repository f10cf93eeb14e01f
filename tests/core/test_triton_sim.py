"""Tests for the simulated device and the cost model."""

import pytest

from repro.core.triton_sim import (
    DeviceModel,
    KernelSpec,
    MemoryAccess,
    RTX3090,
    estimate_kernel_time,
    estimate_total_time,
)
from repro.errors import DeviceError


# -- device model ------------------------------------------------------------------
def test_coalesced_time_scales_linearly():
    assert RTX3090.time_coalesced_bytes(2e9) == pytest.approx(2 * RTX3090.time_coalesced_bytes(1e9))


def test_indirect_small_accesses_pay_sector_penalty():
    scattered = RTX3090.time_indirect_accesses(1_000_000, 4)
    contiguous = RTX3090.time_indirect_accesses(1_000_000 // 128, 512)
    assert scattered > contiguous


def test_indirect_footprint_caps_traffic():
    uncapped = RTX3090.time_indirect_accesses(1_000_000, 512)
    capped = RTX3090.time_indirect_accesses(1_000_000, 512, footprint_bytes=1e6)
    assert capped < uncapped


def test_tensor_core_faster_than_cuda_cores():
    flops = 1e12
    assert RTX3090.time_compute(flops, True, "fp16") < RTX3090.time_compute(flops, False, "fp16")


def test_fp32_tensor_core_slower_than_fp16():
    flops = 1e12
    assert RTX3090.time_compute(flops, True, "fp32") > RTX3090.time_compute(flops, True, "fp16")


def test_negative_inputs_rejected():
    with pytest.raises(DeviceError):
        RTX3090.time_coalesced_bytes(-1)
    with pytest.raises(DeviceError):
        RTX3090.time_compute(-1, True)
    with pytest.raises(DeviceError):
        RTX3090.time_atomics(-1)
    with pytest.raises(DeviceError):
        RTX3090.dtype_bytes("fp8")


def test_dtype_bytes():
    assert RTX3090.dtype_bytes("fp16") == 2
    assert RTX3090.dtype_bytes("fp32") == 4


# -- kernel spec -----------------------------------------------------------------------
def make_kernel(**overrides):
    spec = dict(
        name="k",
        loads=[
            MemoryAccess("A", 1e6, 4),
            MemoryAccess("B", 1e6, 4, indirect=True, contiguous_elements=128),
        ],
        stores=[MemoryAccess("C", 1e5, 4, indirect=True, atomic=True)],
        flops=1e9,
        uses_tensor_core=True,
        dtype="fp16",
    )
    spec.update(overrides)
    return KernelSpec(**spec)


def test_kernel_aggregates():
    kernel = make_kernel()
    assert kernel.coalesced_load_bytes == 4e6
    assert kernel.atomic_count == 1e5
    assert kernel.indirect_request_count > 0


def test_breakdown_fields_positive():
    breakdown = estimate_kernel_time(make_kernel())
    assert breakdown.total_ms > 0
    as_dict = breakdown.as_dict()
    assert set(as_dict) == {
        "dram_ms",
        "indirect_ms",
        "compute_ms",
        "atomic_ms",
        "overhead_ms",
        "total_ms",
    }


def test_reshape_transpose_ops_increase_runtime():
    slow = estimate_kernel_time(make_kernel(reshape_transpose_ops=2, flops=1e12))
    fast = estimate_kernel_time(make_kernel(reshape_transpose_ops=0, flops=1e12))
    assert slow.total_ms > fast.total_ms


def test_non_power_of_two_tiles_are_padded():
    padded = estimate_kernel_time(make_kernel(tiles={"m": 48}, flops=1e12))
    exact = estimate_kernel_time(make_kernel(tiles={"m": 64}, flops=1e12))
    assert padded.compute_ms > exact.compute_ms * 0.99


def test_efficiency_overrides():
    fast = estimate_kernel_time(make_kernel(compute_efficiency=0.9, flops=1e13))
    slow = estimate_kernel_time(make_kernel(compute_efficiency=0.1, flops=1e13))
    assert slow.compute_ms > fast.compute_ms


def test_imbalance_multiplies_runtime():
    balanced = estimate_kernel_time(make_kernel())
    imbalanced = estimate_kernel_time(make_kernel(imbalance=2.0))
    assert imbalanced.total_ms > balanced.total_ms


def test_cost_report_totals_and_intermediates():
    producer = KernelSpec(
        name="gather", stores=[MemoryAccess("tmp", 1e6, 4)], loads=[MemoryAccess("B", 1e6, 4)]
    )
    consumer = KernelSpec(
        name="matmul", loads=[MemoryAccess("tmp", 1e6, 4)], stores=[MemoryAccess("C", 1e5, 4)]
    )
    report = estimate_total_time([producer, consumer])
    assert report.num_kernels == 2
    assert report.total_ms == pytest.approx(sum(b.total_ms for b in report.breakdowns))
    assert report.intermediate_bytes == pytest.approx(8e6)
    assert "total" in report.summary()


def test_custom_device_changes_results():
    slow_device = DeviceModel(name="slow", dram_bandwidth_gbps=100.0)
    fast = estimate_kernel_time(make_kernel(), RTX3090)
    slow = estimate_kernel_time(make_kernel(), slow_device)
    assert slow.dram_ms > fast.dram_ms

