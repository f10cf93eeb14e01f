"""``python -m repro.engine``: build the SpMM family's emitted kernels — ELL,
GroupCOO, COO; SpMM and SpMV; plain and coalesced — into the object cache now,
so that no later process on this machine waits for ``cc``.  A source depends on
a plan's structure only: these objects serve every shape, pattern and spelling.
"""

import sys

import numpy as np

from repro import SparseEinsum, StackedSparse
from repro.engine.emit import Emitted
from repro.formats import COO, ELL, GroupCOO


def main() -> int:
    """Build each object; print what each plan will run; 1 if any runs its steps."""
    dense, stack = np.eye(2), np.stack([np.eye(2)] * 2)
    calls = {
        "C[m,n] += A[m,k] * B[k,n]": (dense, {"B": dense}),
        "y[m] += A[m,k] * x[k]": (dense, {"x": dense[0]}),
        "C[s,m,n] += A[s,m,k] * B[k,n]": (stack, {"B": dense}),
        "C[s,m,n] += A[s,m,k] * B[s,k,n]": (stack, {"B": stack}),
        "y[s,m] += A[s,m,k] * x[s,k]": (stack, {"x": stack[0]}),
    }
    steps = 0
    for fmt in (ELL, GroupCOO, COO):
        for expression, (values, operands) in calls.items():
            stacked = values.ndim == 3
            sparse = StackedSparse.from_dense(values, fmt) if stacked else fmt.from_dense(values)
            operator = SparseEinsum(expression)
            operator(A=sparse, **operands)
            emitted = operator.compiled.specialized.emitted
            runs = "C" if isinstance(emitted, Emitted) else f"steps ({emitted})"
            steps += runs != "C"
            sys.stdout.write(f"{fmt.__name__:9s} {expression:34s} emitter: {runs}\n")
    return int(steps > 0)


if __name__ == "__main__":
    sys.exit(main())
