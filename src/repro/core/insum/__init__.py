"""The Insum frontend: lowering indirect Einsums to FX graphs (Section 5.1)."""

from repro.core.insum.planner import FactorPlan, InsumPlan, plan_insum
from repro.core.insum.api import Insum, SparseEinsum, fresh_output, insum, sparse_einsum

__all__ = [
    "FactorPlan",
    "InsumPlan",
    "plan_insum",
    "Insum",
    "SparseEinsum",
    "fresh_output",
    "insum",
    "sparse_einsum",
]
