"""Pattern-matching contractions into ``ops.dot`` nodes (Section 5.2.2).

Stock TorchInductor lowers a matrix multiplication either through a fixed
Triton template (fast but unfusable with gathers/scatters) or as a
broadcasted multiply followed by a sum (fusable but without Tensor Cores
and with poor tiling).  The paper's extension detects the
multiply-then-reduce pattern and replaces it with an explicit ``ops.dot``
node.  Here the same decision is made on the Insum plan: we look for a pair
of factors that share a reduction variable and contribute disjoint output
variables — the (M, K) x (K, N) structure ``tl.dot`` needs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.insum.planner import InsumPlan


@dataclass
class DotInfo:
    """The matmul structure discovered inside a contraction stage.

    ``m``/``n``/``k``/``batch`` are the products of the extents of the
    corresponding variable groups; the generated kernel performs
    ``batch`` independent (m x k) @ (k x n) products.
    """

    m_vars: list[str]
    n_vars: list[str]
    k_vars: list[str]
    batch_vars: list[str]
    m: int
    n: int
    k: int
    batch: int
    lhs_factor: int
    rhs_factor: int

    def tensor_core_eligible(self, dtype: str) -> bool:
        """Whether this dot shape can profitably use Tensor Cores.

        Tensor Core MMA tiles need a reasonable reduction depth and output
        width; degenerate shapes (matrix-vector products, tiny reductions)
        run better on CUDA cores, which is why non-blocked GroupCOO SpMM
        does not light up Tensor Cores while BlockGroupCOO does.
        """
        if dtype not in ("fp16", "fp32"):
            return False
        return self.k >= 8 and self.n >= 8 and self.m >= 1

    def describe(self) -> str:
        return (
            f"dot[M={self.m} ({','.join(self.m_vars) or '-'}), "
            f"N={self.n} ({','.join(self.n_vars) or '-'}), "
            f"K={self.k} ({','.join(self.k_vars)}), "
            f"batch={self.batch} ({','.join(self.batch_vars) or '-'})]"
        )


def _extent_product(variables: list[str], extents: dict[str, int]) -> int:
    product = 1
    for var in variables:
        product *= extents[var]
    return product


def detect_dot(plan: InsumPlan, matvec: bool = False) -> DotInfo | None:
    """Find the best matmul pattern in the plan's contraction, if any.

    Returns ``None`` when the contraction has no reduction variable or no
    pair of factors forms an (M, K) x (K, N) structure — those programs are
    lowered as fused pointwise/reduction loops instead.

    With ``matvec`` a pair whose M or N group is empty also qualifies (the
    matrix–vector shape of every non-block SpMM).  The cost model leaves it
    off — such a dot neither needs the matmul template nor lights up Tensor
    Cores — while the NumPy executor turns it on, because a batched
    ``np.matmul`` runs those shapes too.
    """
    reduction_vars = plan.info.reduction_vars
    if not reduction_vars:
        return None

    extents = plan.info.extents
    output_vars = set(plan.output_subscripts)
    factor_subs = [set(f.subscripts) for f in plan.factors]

    best: DotInfo | None = None
    for i in range(len(factor_subs)):
        for j in range(len(factor_subs)):
            if i == j:
                continue
            shared_reduction = [
                v for v in reduction_vars if v in factor_subs[i] and v in factor_subs[j]
            ]
            if not shared_reduction:
                continue
            m_vars = [
                v
                for v in plan.output_subscripts
                if v in factor_subs[i] and v not in factor_subs[j]
            ]
            n_vars = [
                v
                for v in plan.output_subscripts
                if v in factor_subs[j] and v not in factor_subs[i]
            ]
            if not matvec and not (m_vars and n_vars):
                continue
            batch_vars = [
                v
                for v in plan.output_subscripts
                if v in factor_subs[i] and v in factor_subs[j] and v in output_vars
            ]
            candidate = DotInfo(
                m_vars=m_vars,
                n_vars=n_vars,
                k_vars=shared_reduction,
                batch_vars=batch_vars,
                m=_extent_product(m_vars, extents),
                n=_extent_product(n_vars, extents),
                k=_extent_product(shared_reduction, extents),
                batch=_extent_product(batch_vars, extents),
                lhs_factor=i,
                rhs_factor=j,
            )
            score = candidate.m * candidate.n * candidate.k * max(candidate.batch, 1)
            if best is None or score > best.m * best.n * best.k * max(best.batch, 1):
                best = candidate
    return best
