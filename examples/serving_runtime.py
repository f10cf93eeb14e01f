"""The serving runtime: plan cache, stacked batching, and the server.

Run with:  PYTHONPATH=src python examples/serving_runtime.py
"""

import numpy as np

from repro import (
    ServeConfig,
    Session,
    SparseEinsum,
    StackedSparse,
    get_plan_cache,
    sparse_einsum,
)
from repro.formats import COO, GroupCOO
from repro.utils.timing import Timer


def main() -> None:
    rng = np.random.default_rng(0)

    # --- StackedSparse: one widened Einsum for a stack of operands -----------
    # 32 sparse matrices sharing one sparsity pattern (think: one adjacency
    # structure, many edge-weight sets), multiplied by one dense operand.
    pattern = rng.random((96, 128)) < 0.1
    stack = np.where(pattern[None], rng.standard_normal((32, 96, 128)), 0.0)
    batch = StackedSparse.from_dense(stack, GroupCOO, group_size=4)
    dense = rng.standard_normal((128, 24))

    batched = sparse_einsum("C[s,m,n] += A[s,m,k] * B[k,n]", A=batch, B=dense)
    print("stacked result matches numpy:", np.allclose(batched, stack @ dense))

    per_item = SparseEinsum("C[m,n] += A[m,k] * B[k,n]")
    with Timer() as loop_timer:
        np.stack([per_item(A=item, B=dense) for item in batch.items()])
    widened = SparseEinsum("C[s,m,n] += A[s,m,k] * B[k,n]")
    with Timer() as batch_timer:
        widened(A=batch, B=dense)
    print(
        f"batched {batch_timer.elapsed * 1e3:.2f} ms vs per-item loop "
        f"{loop_timer.elapsed * 1e3:.2f} ms "
        f"({loop_timer.elapsed / batch_timer.elapsed:.1f}x)"
    )

    # --- Session: the serving front door (futures over a worker pool) --------
    # Session(backend="threaded") runs an InsumServer underneath; swap the
    # backend string for "inline" or "cluster" without touching call sites.
    spmv = COO.from_dense(np.where(rng.random((64, 64)) < 0.1, 1.0, 0.0))
    with Session(backend="threaded", config=ServeConfig(workers=4)) as session:
        futures = []
        for i in range(60):
            if i % 2 == 0:
                futures.append(
                    session.submit(
                        "C[m,n] += A[m,k] * B[k,n]",
                        A=batch.item(i % batch.stack_size),
                        B=dense,
                    )
                )
            else:
                futures.append(
                    session.submit("y[m] += A[m,k] * x[k]", A=spmv, x=rng.standard_normal(64))
                )
        outputs = [future.result(timeout=30) for future in futures]
        print("all requests ok:", len(outputs) == 60)
        print(session.stats().summary())

    print(get_plan_cache().stats().summary())


if __name__ == "__main__":
    main()
