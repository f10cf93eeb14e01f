"""``python -m repro.engine``: build every emitted kernel of the library's formats
and kernel classes — ELL, GroupCOO, COO, BlockCOO, BlockGroupCOO; SpMM and SpMV;
plain and stacked; sparse convolution, both tensor products — into the object
cache now, so that no later process on this machine waits for ``cc``.  A source
depends on a plan's structure only: these serve every shape, pattern and spelling.
"""

import sys

import numpy as np

from repro import SparseEinsum, StackedSparse
from repro.core.insum import Insum, fresh_output
from repro.datasets import build_kernel_map
from repro.engine.emit import Emitted
from repro.formats import COO, ELL, BlockCOO, BlockGroupCOO, GroupCOO
from repro.kernels import FullyConnectedTensorProduct, SparseConv3d

def kernels():
    """``(owner, expression, compiled kernel)`` of one tiny call per structure."""
    dense, stack = np.eye(2), np.stack([np.eye(2)] * 2)
    calls = {
        "C[m,n] += A[m,k] * B[k,n]": (dense, {"B": dense}),
        "y[m] += A[m,k] * x[k]": (dense, {"x": dense[0]}),
        "C[s,m,n] += A[s,m,k] * B[k,n]": (stack, {"B": dense}),
        "C[s,m,n] += A[s,m,k] * B[s,k,n]": (stack, {"B": stack}),
        "y[s,m] += A[s,m,k] * x[s,k]": (stack, {"x": stack[0]}),
    }
    formats = {fmt: {} for fmt in (ELL, GroupCOO, COO)}
    formats.update(dict.fromkeys((BlockCOO, BlockGroupCOO), {"block_shape": (1, 1)}))
    for fmt, how in formats.items():
        for expression, (values, operands) in calls.items():
            if how and "x" in operands:
                continue  # a block SpMV: a dense reduction with no vector variable, no loop nest
            if values.ndim == 3:
                sparse = StackedSparse.from_dense(values, fmt, **how)
            else:
                sparse = fmt.from_dense(values, **how)
            operator = SparseEinsum(expression)
            operator(A=sparse, **operands)
            yield fmt.__name__, expression, operator.compiled.specialized
    conv = SparseConv3d(build_kernel_map(np.zeros((1, 3), dtype=np.int64)), 1, 1)
    conv(np.ones((1, 1)))
    product = FullyConnectedTensorProduct(l_max=0, channels=1)
    x, y, w = product.random_inputs(batch=1)
    product(x, y, w)
    for layer in (conv, product):
        yield type(layer).__name__, layer.expression, layer.compiled.specialized
    # The same product over the CG tensor's plain COO arrays (a serving request): no groups.
    ungrouped = product.expression.replace("[p,q]", "[p]")
    tensors = {"Z": fresh_output((1, 1, 1), x.dtype), "X": x, "Y": y, "W": w}
    compiled = Insum(ungrouped).compile(**tensors, **product.cg.to_coo_arrays("CG"))
    yield "insum", ungrouped, compiled.specialized


def main() -> int:
    """Build each object; print what each plan will run; 1 if any runs its steps."""
    steps = 0
    for owner, expression, kernel in kernels():
        runs = "C" if isinstance(kernel.emitted, Emitted) else f"steps ({kernel.emitted})"
        steps += runs != "C"
        sys.stdout.write(f"{owner:13s} {expression:34s} emitter: {runs}\n")
    return int(steps > 0)


if __name__ == "__main__":
    sys.exit(main())
