"""The unfused NumPy executor for compiled Insum programs.

The two kernel schedules execute through two code paths:

* :func:`run_unfused` (here) executes the FX graph node by node,
  materialising every gathered temporary in full — the behaviour of the
  stock TorchInductor schedule with a template matmul.
* the fused schedule runs
  :class:`repro.engine.specialize.SpecializedKernel`, which streams over
  the leading output variable in windows, gathering, contracting, and
  scattering each window without ever holding the full gathered
  temporaries — the memory behaviour of the fused Triton kernel generated
  by the paper's extension.

Both produce identical numerics (up to reassociation of the scatter sums)
and are tested against the loop-nest reference interpreter.
"""

from __future__ import annotations

import numpy as np

from repro.core.insum.planner import InsumPlan


def run_unfused(plan: InsumPlan, tensors: dict[str, np.ndarray]) -> np.ndarray:
    """Execute through the FX interpreter (full intermediate materialisation)."""
    assert plan.graph_module is not None
    return plan.graph_module(**tensors)
