"""The paper's case-study applications, each written as one indirect Einsum.

Every class in this package wraps a single Einsum expression (the "1 LoC"
of Table 1), the fixed-length format that feeds it, and the compiled
kernel's cost report, so the benchmark harnesses can compare against the
hand-written baselines in :mod:`repro.baselines`.
"""

from repro.kernels.spmm import StructuredSpMM, UnstructuredSpMM
from repro.kernels.spconv import SparseConv3d
from repro.kernels.equivariant import FullyConnectedTensorProduct
from repro.kernels.elementwise import coo_elementwise_multiply, sddmm, spmv

__all__ = [
    "StructuredSpMM",
    "UnstructuredSpMM",
    "SparseConv3d",
    "FullyConnectedTensorProduct",
    "coo_elementwise_multiply",
    "sddmm",
    "spmv",
]
