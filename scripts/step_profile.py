"""Warm step profile: where one call of a compiled kernel spends its time.

    python scripts/step_profile.py [--case cora/groupcoo ...] [--seed 7] [--calls 20]
    python scripts/step_profile.py --call [--case equivariant/l1/c16 ...] [--calls 20]
    python scripts/step_profile.py --call --fresh [--case cora/groupcoo ...] [--calls 20]

Wraps every prebuilt step of a case's ``SpecializedKernel`` in a timer and
prints milliseconds per step and per warm call, for the eighteen cases of the
layer benchmark's two kernel workloads (``benchmarks/layers/workloads.py``,
read only).  A plan that runs its emitted C loop nest — where ``cc`` exists all
eighteen: the SpMM family, the block formats, sparse convolution and the tensor
product — has no steps to wrap: its one line is ``<ms>  emitted C``; one that
could have been emitted and was not (``CC=/bin/false`` shows every step list)
says why.  An emitted case also prints where each operand of its last call
lay — the byte phase of its data mod 64, ``reused`` after a vector operand
the placement rule (``Emitted.pin``) keeps on a cache line and ``copied``
after each one it copied for the call — so a case that runs at two speeds
shows why.  The profiles in ``ROADMAP.md`` and ``docs/PERFORMANCE.md`` are its.

``--call`` prints instead the stage census of a reused call of each case — a
``SparseEinsum`` over an SpMM case's operands, or the ``SparseConv3d`` or
``FullyConnectedTensorProduct`` of a ``kernel_indirect`` case — in
microseconds: the memo lookup, the plan-cache lookup, binding the operands a
call gives, their placement, the data pointers, the result's allocation, the C
call and the reshape, each timed alone (best of ``--calls`` rounds), beside the
whole call.  A case whose plan runs its steps prints the memo and plan lookups
and ``run``.

``--call --fresh`` prints the stage census of a *first* call on a fresh
instance of a warm operator, for the five ``pattern_churn`` cases: the format's
construction from a never-seen matrix of the case's layout, then the binding
(``SparseEinsum._bound``), the plan-cache lookup, the pin of the new arrays and
the pinned call, beside a reused call of the same instance (its second call).
The ``warm`` column builds ``--calls`` instances of one case back to back, then
makes their first calls back to back; the ``cold`` column takes the ops in the
layer benchmark's own loop order (every case in turn, each ``reps`` times a
round, each matrix drawn and built just before its call), where each step
runs cache-cold.  The ``extents`` column takes the ``cold`` column's order,
but each never-seen matrix also drops one to eight of its nonzeros (of its
blocks, for the block case): its arrays' extents — nnz, groups, ELL width —
differ from the case's, which the binding template serves too (the plan cache
compiles each extent once).  ``full binds`` counts the first calls that ran
the whole rewrite pipeline (``SparseEinsum._bind``), ``compiles`` the plan-cache
misses.  Every result is checked against its dense oracle.
"""

import argparse
import os
import sys
import time
import timeit
from collections import defaultdict
from pathlib import Path

# One BLAS thread, as the layer benchmark pins it; fixed before numpy loads.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"
ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks" / "layers")]

import numpy as np  # noqa: E402
import workloads  # noqa: E402

from repro import SparseEinsum, clear_plan_cache, get_plan_cache  # noqa: E402
from repro.core.insum import api  # noqa: E402
from repro.engine import emit, specialize  # noqa: E402


def profile(case, calls: int) -> str:
    """Time ``calls`` warm calls of ``case`` and each step of its kernel(s)."""
    spent: dict[str, float] = defaultdict(float)
    timed_kernels, run = set(), specialize.SpecializedKernel.run
    loop, reasons = emit.Emitted.__call__, set()
    place, originals, placed = emit._placed, {}, {}

    def traced_place(array, dtype, on_line):
        used = place(array, dtype, on_line)
        originals[id(used)] = array
        return used

    def timed_loop(emitted, result, operands, pointers):
        start = time.perf_counter()
        loop(emitted, result, operands, pointers)
        spent["emitted C"] += time.perf_counter() - start
        for (name, _, kind), used in zip(emitted.layout[1:], operands):
            array = originals.pop(id(used), used)
            tags = ["reused"] * (kind == "reused") + ["copied"] * (used is not array)
            placed[name] = f"{name} {array.ctypes.data % 64}" + f" ({', '.join(tags)})" * bool(tags)

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
    emit._placed = traced_place
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
        emit._placed = place
    head = f"{case.name}: {per_call:.3f} ms a warm call, "
    head += f"{sum(spent.values()) / calls * 1e3:.3f} ms of it in the kernel"
    lines = [f"  emitter: steps ({reason})" for reason in sorted(reasons)]
    lines += [f"  phase mod 64: {', '.join(placed.values())}"] * bool(placed)
    lines += [f"  {s / calls * 1e3:8.3f} ms  {t}" for t, s in spent.items()]
    return "\n".join([head, *lines])


def reused(case) -> tuple:
    """``(memo lookup, whole call)`` of a reused call of ``case``: a
    ``SparseEinsum`` over the SpMM case's operands, or the kernel class (and
    the operands) that the case's warm call closes over."""
    if case.rhs is not None:
        operator, operands = SparseEinsum(workloads.SPMM), {"A": case.build_format(), "B": case.rhs}
        return lambda: operator._bound(operands), lambda: operator(**operands)
    call = case.setup()
    cells = dict(zip(call.__code__.co_freevars, (cell.cell_contents for cell in call.__closure__)))
    layer = cells.pop("conv", None) or cells.pop("product")
    args = [cells[name] for name in ("features", "x", "y", "w") if name in cells]
    return lambda: layer._bound(*args), call


def census(case, calls: int) -> str:
    """The stages of a reused call of ``case`` (its ``SparseEinsum`` or kernel
    class), in µs."""
    lookup, call = reused(case)
    call()  # compile, memoize, pin

    def best(stage, number: int = 50) -> float:
        return min(timeit.repeat(stage, number=number, repeat=max(1, calls))) / number * 1e6

    bound, operands = lookup()
    compiled = bound.compile(operands)
    stages = {"memo lookup": best(lookup), "plan lookup": best(lambda: bound.compile(operands))}
    emitted = compiled.specialized.emitted
    if bound.pin(compiled, operands) is None:
        stages["run"] = best(lambda: compiled.run(bound.tensors(operands)), 5)
        why = emitted if isinstance(emitted, str) else "not pinned"
        lines = [f"  emitter: steps ({why})"]
    else:
        tensors, layout = bound.tensors(operands), emitted.layout
        dtype = np.result_type(*[tensors[name] for name, _, kind in layout[1:] if kind != "index"])
        given = [(name, kind) for name, _, kind in layout if name in bound.given]
        views = [tensors[name] for name, _ in given]
        result = np.zeros(layout[0][1], dtype)
        kept = [emit._address(tensors[n]) for n, _, _ in layout[1:] if n not in bound.given]
        placed = {n: emit._placed(tensors[n], dtype, kind == "reused") for n, kind in given}
        placed[layout[0][0]] = result  # never the read-only placeholder
        array = emitted._array(*[emit._address(placed.get(n, tensors[n])) for n, _, _ in layout])
        stages["bind"] = best(lambda: [api._view(operands[n], bound.given[n]) for n, _ in given])
        stages["placement"] = best(
            lambda: [emit._placed(v, dtype, kind == "reused") for v, (_, kind) in zip(views, given)]
        )
        stages["pointers"] = best(
            lambda: emitted._array(*map(emit._address, [result, *views]), *kept)
        )
        stages["result allocation"] = best(lambda: np.zeros(layout[0][1], dtype))
        function = emitted.functions[dtype]
        if function(array, emitted._dims):
            raise RuntimeError(f"{case.name}: the census's pointers are not the call's")
        stages["C call"] = best(lambda: function(array, emitted._dims), 5)
        shape = bound.logical_shape
        stages["reshape"] = best(lambda: result if result.shape == shape else result.reshape(shape))
        lines = []
    whole = best(call, 5)
    lines += [f"  {spent:9.1f} us  {stage}" for stage, spent in stages.items()]
    lines.append(f"  {whole - sum(stages.values()):9.1f} us  the rest")
    return "\n".join([f"{case.name}: {whole:.1f} us a reused call", *lines])


FRESH_STAGES = ("build", "bind", "plan lookup", "pin", "pinned call")

#: The operators that ran the whole rewrite pipeline (``SparseEinsum._bind``).
FULL_BINDS: list = []


def thinned(case, dense: np.ndarray, rng) -> tuple[np.ndarray, np.ndarray]:
    """``dense`` less one to eight of its nonzeros (blocks, for a block case),
    and its oracle: the same layout at other extents."""
    block = case.block
    occupied = dense.reshape(dense.shape[0] // block, block, -1, block).any(axis=(1, 3))
    rows, cols = np.nonzero(occupied)
    drop = rng.choice(rows.size, size=int(rng.integers(1, 9)), replace=False)
    for row, col in zip(rows[drop], cols[drop]):
        dense[row * block : (row + 1) * block, col * block : (col + 1) * block] = 0
    return dense, dense.astype(np.float64) @ case.rhs


def fresh_op(case, operator, rng, samples: dict, built=None, thin=False) -> None:
    """One ``pattern_churn`` op of ``case`` on ``operator``, stage by stage —
    build a never-seen matrix's format (:func:`thinned` with ``thin``; or take
    ``built``: the format and its oracle), then its first call — and a reused
    call of the same instance: each stage's µs into ``samples``."""
    clock = time.perf_counter
    if built is None:
        dense, oracle = case.fresh(rng)
        if thin:
            dense, oracle = thinned(case, dense, rng)
        start = clock()
        operand = case.build(dense)
        samples["build"].append((clock() - start) * 1e6)
    else:
        operand, oracle = built
    binds, misses, start = len(FULL_BINDS), get_plan_cache().misses, clock()
    bound, operands = operator._bound({"A": operand, "B": case.rhs})
    bound_at = clock()
    compiled = bound.compile(operands)
    looked_up = clock()
    bound.kernel = (compiled, bound.pin(compiled, operands))
    pinned = clock()
    result = bound.run(compiled, operands)
    first = clock()
    again = operator(A=operand, B=case.rhs)
    reused = clock()
    tolerance = 1e-4 if case.single else 1e-9
    for got in (result, again):
        if not np.allclose(got, oracle, rtol=tolerance, atol=tolerance):
            raise RuntimeError(f"{case.name}: a fresh-instance call disagrees with its oracle")
    marks = (start, bound_at, looked_up, pinned, first)
    for stage, begin, end in zip(FRESH_STAGES[1:], marks, marks[1:]):
        samples[stage].append((end - begin) * 1e6)
    samples["first call"].append((first - start) * 1e6)
    samples["reused call"].append((reused - first) * 1e6)
    samples["full binds"].append(len(FULL_BINDS) - binds)
    samples["compiles"].append(get_plan_cache().misses - misses)


def fresh_census(cases, calls: int, seed: int) -> str:
    """The stages of a first call on a fresh instance of each ``pattern_churn``
    case on its warm operator: back to back (``warm``: the formats built
    first, then their first calls), in the benchmark's loop order (``cold``),
    and so at other extents (``extents``)."""
    rng = workloads.stream(seed, "churn/ops")
    operators = {case.name: SparseEinsum(workloads.SPMM) for case in cases}
    modes = ("warm", "cold", "extents")
    columns = {mode: {case.name: defaultdict(list) for case in cases} for mode in modes}
    for case in cases:  # warm each operator, as the benchmark's setup does
        fresh_op(case, operators[case.name], rng, defaultdict(list))
    bind = SparseEinsum._bind

    def counted(self, operands):
        FULL_BINDS.append(self)
        return bind(self, operands)

    SparseEinsum._bind = counted
    try:
        for case in cases:
            samples = columns["warm"][case.name]
            built = []
            for _ in range(calls):
                dense, oracle = case.fresh(rng)
                start = time.perf_counter()
                built.append((case.build(dense), oracle))
                samples["build"].append((time.perf_counter() - start) * 1e6)
            for instance in built:
                fresh_op(case, operators[case.name], rng, samples, instance)
        for mode in ("cold", "extents"):
            for _ in range(calls):
                for case in cases:
                    for _ in range(case.reps):
                        samples = columns[mode][case.name]
                        fresh_op(case, operators[case.name], rng, samples, thin=mode == "extents")
    finally:
        SparseEinsum._bind = bind
    lines = [f"first call on a fresh instance of a warm operator, us (median; {calls} rounds)"]
    for case in cases:
        chosen = [columns[mode][case.name] for mode in modes]
        lines.append(f"{case.name:30s}" + "".join(f"{mode:>10s}" for mode in modes))
        for stage in (*FRESH_STAGES, "first call", "reused call"):
            medians = [np.median(column[stage]) for column in chosen]
            lines.append(f"  {stage:28s}" + "".join(f"{value:10.1f}" for value in medians))
        ratios = [
            np.median(column["first call"]) / np.median(column["reused call"])
            for column in chosen
        ]
        lines.append(f"  {'first / reused':28s}" + "".join(f"{ratio:9.2f}x" for ratio in ratios))
        for count in ("full binds", "compiles"):
            shares = [f"{sum(column[count])}/{len(column['bind'])}" for column in chosen]
            lines.append(f"  {count:28s}" + "".join(f"{share:>10s}" for share in shares))
    return "\n".join(lines)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--case", action="append", help="case name; default: all of the mode's")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--calls", type=int, default=20)
    parser.add_argument("--call", action="store_true", help="the stages of a reused call")
    parser.add_argument(
        "--fresh",
        action="store_true",
        help="with --call: the stages of a first call on a fresh instance (pattern_churn cases)",
    )
    args = parser.parse_args()
    if args.fresh and not args.call:
        parser.error("--fresh is a mode of --call")
    if args.fresh:
        cases = workloads.pattern_churn_cases(args.seed)
    else:
        cases = workloads.kernel_spmm_cases(args.seed) + workloads.kernel_indirect_cases(args.seed)
    if set(args.case or ()) - {case.name for case in cases}:
        parser.error(f"unknown case in {args.case}; have {[case.name for case in cases]}")
    chosen = [case for case in cases if not args.case or case.name in args.case]
    if args.fresh:
        sys.stdout.write(fresh_census(chosen, args.calls, args.seed) + "\n")
        return
    for case in chosen:
        report = census(case, args.calls) if args.call else profile(case, args.calls)
        sys.stdout.write(report + "\n")


if __name__ == "__main__":
    main()
