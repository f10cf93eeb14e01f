"""The extended TorchInductor-like backend (Section 5.2).

Responsibilities, mirroring the paper's compiler extension:

* lower the Insum plan into loop-level *stages* (gather / contraction /
  scatter) with explicit memory-traffic accounting;
* pattern-match broadcasted-multiply-plus-sum contractions into an
  ``ops.dot`` node that maps onto Tensor Cores (Section 5.2.2);
* fuse the gather, contraction, and scatter stages into a single simulated
  Triton kernel — or keep them separate, reproducing stock TorchInductor's
  template-matmul limitation (Section 5.2, "Limitation");
* apply 2-D output tiling and lazy vs. eager broadcasting (Section 5.2.3);
* autotune tile sizes against the analytical device model — on demand, when
  a modelled number is asked for, never on the way to an executable.

Every schedule executes on the plan's
:class:`~repro.engine.specialize.SpecializedKernel`: cache-sized windows when
fused, one window over the whole extent when not.
"""

from repro.core.inductor.config import InductorConfig
from repro.core.inductor.compile import CompiledInsum, compile_plan
from repro.core.inductor.dot_rewrite import DotInfo, detect_dot
from repro.core.inductor.loop_ir import StageIR, lower_to_stages
from repro.core.inductor.fusion import fuse_stages
from repro.core.inductor.autotune import AutotuneResult, autotune_tiles

__all__ = [
    "InductorConfig",
    "CompiledInsum",
    "compile_plan",
    "DotInfo",
    "detect_dot",
    "StageIR",
    "lower_to_stages",
    "fuse_stages",
    "AutotuneResult",
    "autotune_tiles",
]
