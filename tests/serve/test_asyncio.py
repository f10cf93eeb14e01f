"""The asyncio bridge: asubmit / amap_batches under a real event loop.

Acceptance: the cluster backend serves >= 100 concurrent ``asubmit``
calls from one event loop without deadlock — the shape of an async HTTP
frontend fanning user requests onto the pool.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.errors import EinsumValidationError
from repro.serve import ServeConfig, Session

SPMM_EXPR = "C[m,n] += A[m,k] * B[k,n]"


def test_asubmit_returns_the_result(spmm_operands):
    async def main():
        with Session(backend="threaded") as session:
            return await session.asubmit(SPMM_EXPR, **spmm_operands)

    output = asyncio.run(main())
    assert np.asarray(output).shape == (32, 8)


def test_asubmit_raises_worker_errors_at_the_await(spmm_operands):
    async def main():
        with Session(backend="threaded") as session:
            await session.asubmit(SPMM_EXPR, A=spmm_operands["A"], B=np.zeros((7, 3)))

    with pytest.raises(EinsumValidationError):
        asyncio.run(main())


def test_hundred_concurrent_asubmit_on_cluster(spmm_operands):
    """The acceptance bar: >= 100 concurrent awaits on the cluster, no deadlock."""

    async def main():
        config = ServeConfig(workers=2, worker_threads=1)
        with Session(backend="cluster", config=config) as session:
            coroutines = [
                session.asubmit(SPMM_EXPR, **spmm_operands) for _ in range(100)
            ]
            return await asyncio.wait_for(asyncio.gather(*coroutines), timeout=240)

    outputs = asyncio.run(main())
    assert len(outputs) == 100
    reference = np.asarray(outputs[0])
    for output in outputs[1:]:
        assert np.array_equal(np.asarray(output), reference)


def test_amap_batches_streams_in_order(serve_workload):
    async def main():
        with Session(backend="threaded", config=ServeConfig(workers=2)) as session:
            streamed = []
            async for output in session.amap_batches(serve_workload, window=8):
                streamed.append(np.asarray(output))
            return streamed

    streamed = asyncio.run(main())
    with Session(backend="inline") as session:
        direct = [np.asarray(f.result(30)) for f in session.submit_many(serve_workload)]
    assert len(streamed) == len(direct)
    for expected, actual in zip(direct, streamed):
        np.testing.assert_allclose(actual, expected, atol=1e-9)


def test_concurrent_asubmit_interleaves_with_other_loop_work(spmm_operands):
    """The loop stays live while requests are in flight (no blocking submit)."""

    async def main():
        ticks = 0
        with Session(backend="threaded", config=ServeConfig(workers=2)) as session:
            task = asyncio.ensure_future(
                asyncio.gather(
                    *[session.asubmit(SPMM_EXPR, **spmm_operands) for _ in range(20)]
                )
            )
            while not task.done():
                ticks += 1
                await asyncio.sleep(0.001)
            await task
        return ticks

    assert asyncio.run(main()) >= 1
