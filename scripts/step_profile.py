"""Warm step profile: where one call of a compiled kernel spends its time.

    python scripts/step_profile.py [--case cora/groupcoo ...] [--seed 7] [--calls 20]

Wraps every prebuilt step of a case's ``SpecializedKernel`` in a timer and
prints milliseconds per step and per warm call, for the eighteen cases of the
layer benchmark's two kernel workloads (``benchmarks/layers/workloads.py``,
read only).  A plan that runs its emitted C loop nest — where ``cc`` exists all
eighteen: the SpMM family, the block formats, sparse convolution and the tensor
product — has no steps to wrap: its one line is ``<ms>  emitted C``; one that
could have been emitted and was not (``CC=/bin/false`` shows every step list)
says why.  An emitted case also prints where each operand of its last call
lay — the byte phase of its data mod 64, ``reused`` after a vector operand
the placement rule (``Emitted.operands``) keeps on a cache line and ``copied``
after each one it copied for the call — so a case that runs at two speeds
shows why.  The profiles in ``ROADMAP.md`` and ``docs/PERFORMANCE.md`` are its.
"""

import argparse
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

# One BLAS thread, as the layer benchmark pins it; fixed before numpy loads.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"
ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks" / "layers")]

import workloads  # noqa: E402

from repro import clear_plan_cache  # noqa: E402
from repro.engine import emit, specialize  # noqa: E402


def profile(case, calls: int) -> str:
    """Time ``calls`` warm calls of ``case`` and each step of its kernel(s)."""
    spent: dict[str, float] = defaultdict(float)
    timed_kernels, run = set(), specialize.SpecializedKernel.run
    loop, reasons = emit.Emitted.__call__, set()
    place, placed = emit.Emitted.operands, {}

    def traced_operands(emitted, arrays, dtype):
        taken = place(emitted, arrays, dtype)
        for (name, _, kind), array, used in zip(emitted.layout[1:], arrays[1:], taken or ()):
            tags = ["reused"] * (kind == "reused") + ["copied"] * (used is not array)
            placed[name] = f"{name} {array.ctypes.data % 64}" + f" ({', '.join(tags)})" * bool(tags)
        return taken

    def timed_loop(emitted, result, operands):
        start = time.perf_counter()
        loop(emitted, result, operands)
        spent["emitted C"] += time.perf_counter() - start

    def timed(step):
        def timed_run(regs, window):
            start = time.perf_counter()
            step.run(regs, window)
            spent[step.text] += time.perf_counter() - start

        return step._replace(run=timed_run)

    def traced(kernel, tensors):
        program = kernel._program
        if program is not None and id(kernel) not in timed_kernels:
            timed_kernels.add(id(kernel))
            for steps in (program.per_call, program.per_window, program.per_window_direct or []):
                steps[:] = [timed(step) for step in steps]
            if isinstance(kernel.emitted, str):
                reasons.add(kernel.emitted)
        return run(kernel, tensors)

    clear_plan_cache()  # a kernel another case instrumented would count twice
    specialize.SpecializedKernel.run, emit.Emitted.__call__ = traced, timed_loop
    emit.Emitted.operands = traced_operands
    try:
        call = case.setup()
        call()  # compile, memoize, instrument
        spent.clear()
        start = time.perf_counter()
        for _ in range(calls):
            call()
        per_call = (time.perf_counter() - start) / calls * 1e3
    finally:
        specialize.SpecializedKernel.run, emit.Emitted.__call__ = run, loop
        emit.Emitted.operands = place
    head = f"{case.name}: {per_call:.3f} ms a warm call, "
    head += f"{sum(spent.values()) / calls * 1e3:.3f} ms of it in the kernel"
    lines = [f"  emitter: steps ({reason})" for reason in sorted(reasons)]
    lines += [f"  phase mod 64: {', '.join(placed.values())}"] * bool(placed)
    lines += [f"  {s / calls * 1e3:8.3f} ms  {t}" for t, s in spent.items()]
    return "\n".join([head, *lines])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--case", action="append", help="case name; default: all eighteen")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--calls", type=int, default=20)
    args = parser.parse_args()
    cases = workloads.kernel_spmm_cases(args.seed) + workloads.kernel_indirect_cases(args.seed)
    if set(args.case or ()) - {case.name for case in cases}:
        parser.error(f"unknown case in {args.case}; have {[case.name for case in cases]}")
    for case in cases:
        if not args.case or case.name in args.case:
            sys.stdout.write(profile(case, args.calls) + "\n")


if __name__ == "__main__":
    main()
