"""Simulated Triton kernels and GPU device model.

The paper evaluates generated Triton kernels on an RTX 3090.  This
environment has no GPU, so kernels are represented explicitly as
:class:`KernelSpec` objects describing their memory traffic, contraction
work, atomics, and broadcasting overhead, and an analytical
:class:`DeviceModel` converts those into estimated milliseconds.  The
structural effects of the paper's compiler extensions are facts of the
spec — ``uses_tensor_core`` where Triton would emit ``tl.dot``,
``reshape_transpose_ops`` for eager broadcasting's ``tl.view``/``tl.trans``
pair, an atomic store for the ``tl.atomic_add`` scatter — which the tests
assert on directly.
"""

from repro.core.triton_sim.device import DeviceModel, RTX3090
from repro.core.triton_sim.kernel import KernelSpec, MemoryAccess, KernelTimeBreakdown
from repro.core.triton_sim.profiler import estimate_kernel_time, estimate_total_time, CostReport

__all__ = [
    "DeviceModel",
    "RTX3090",
    "KernelSpec",
    "MemoryAccess",
    "KernelTimeBreakdown",
    "estimate_kernel_time",
    "estimate_total_time",
    "CostReport",
]
