#!/usr/bin/env python
"""Per-call cost of a reused operator against how many operands it cycles over.

A reused call should cost the same however many other operands are alive.
This times one ``SparseEinsum`` cycled over S live GroupCOO operands
(256x192 at 10%, N=64) and one ``FullyConnectedTensorProduct`` (l_max 1, 8
channels) cycled over S batch shapes centred on batch 64, so that every S
does the same work per call on average.  By default the S operands share
one set of arrays (``with_values``) and the S batches are views of one
buffer, so every S reads the same memory and only the operator's own
bookkeeping can vary; ``--distinct`` gives each its own arrays, and then
the working set also outgrows the caches as S grows.  Each line is the
median of seven rounds of 512 calls, in µs per call, and its ratio to the
first S of its operator::

    PYTHONPATH=src python scripts/memo_cliff.py [--distinct] [--einsum 1 16 17 64 256]
"""

from __future__ import annotations

import argparse
import statistics
import time

import numpy as np

from repro import SparseEinsum
from repro.formats import GroupCOO
from repro.kernels import FullyConnectedTensorProduct

CALLS, ROUNDS = 512, 7


def per_call_us(calls: list) -> float:
    """Median over rounds of the cost of one call, cycling over ``calls``."""
    for call in calls:
        call()  # bind and compile
    rounds = []
    for _ in range(ROUNDS):
        start = time.perf_counter()
        for i in range(CALLS):
            calls[i % len(calls)]()
        rounds.append((time.perf_counter() - start) / CALLS * 1e6)
    return statistics.median(rounds)


def einsum_calls(count: int, rng: np.random.Generator, distinct: bool) -> list:
    dense = np.where(rng.random((256, 192)) < 0.1, rng.standard_normal((256, 192)), 0.0)
    b, operator = rng.standard_normal((192, 64)), SparseEinsum("C[m,n] += A[m,k] * B[k,n]")
    first = GroupCOO.from_dense(dense)
    operands = [
        GroupCOO.from_dense(dense) if distinct else first.with_values(first.values)
        for _ in range(count)
    ]
    return [lambda operand=operand: operator(A=operand, B=b) for operand in operands]


def product_calls(count: int, rng: np.random.Generator, distinct: bool) -> list:
    layer = FullyConnectedTensorProduct(l_max=1, channels=8)
    batches = range(64 - count // 2, 64 - count // 2 + count)
    shared = layer.random_inputs(max(batches), rng)
    inputs = [
        layer.random_inputs(batch, rng) if distinct else [a[:batch] for a in shared]
        for batch in batches
    ]
    return [lambda args=args: layer(*args) for args in inputs]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--einsum", type=int, nargs="*", default=[1, 16, 17, 64, 256])
    parser.add_argument("--product", type=int, nargs="*", default=[4, 16, 17, 24])
    parser.add_argument("--distinct", action="store_true", help="each operand its own arrays")
    args = parser.parse_args()
    rng = np.random.default_rng(7)
    for name, build, counts in [
        ("SparseEinsum, live operands", einsum_calls, args.einsum),
        ("FullyConnectedTensorProduct, batch shapes", product_calls, args.product),
    ]:
        first = None
        for count in counts:
            cost = per_call_us(build(count, rng, args.distinct))
            first = first or cost
            print(f"{name:44s} {count:4d}  {cost:8.1f} us/call  {cost / first:5.2f}x")


if __name__ == "__main__":
    main()
