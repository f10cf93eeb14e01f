"""The four library workloads: direct calls into the operator API.

``kernel_spmm`` and ``kernel_indirect`` time warm calls, ``cold_compile``
times construct-and-first-call with every cache cleared, ``pattern_churn``
times format construction plus one call on a warm operator.  Each class has
the same four methods the runner drives: ``setup`` (one full set-up cycle,
first result of every case checked), ``measure``, ``teardown`` and
``digest``.

All four are one thread of ``numpy`` work, which this shared host runs 30%
faster or slower from one minute to the next.  So each carries a
``measure.Yardstick``, reads it after every case of every round, and reports
its timings at the reference host speed (see ``host_scale``); the runner does
the same with the set-up cycles.
"""

from __future__ import annotations

import statistics
import time
from typing import Any, Callable

from repro import SparseEinsum

import workloads
from measure import (
    Budget,
    Tally,
    Yardstick,
    clear_caches,
    geomean,
    host_scale,
    pct,
    rounds,
    spread,
    timed_ms,
)
from workloads import SPMM, Case, matches


class RoundSamples:
    """Call times per case and round, each round at the reference host speed."""

    def __init__(self, cases: list):
        self.per_round: dict[str, list[list[float]]] = {case.name: [] for case in cases}
        self.scales: list[float] = []

    def add(self, times: dict[str, list[float]], yardstick_ms: list[float]) -> float:
        """One round: ``times[case]`` as measured, and the yardstick readings
        taken between them.  Returns the scale the round was given."""
        scale = host_scale(yardstick_ms)
        self.scales.append(scale)
        for name, chunk in times.items():
            self.per_round[name].append([ms * scale for ms in chunk])
        return scale

    def summary(self) -> dict[str, Any]:
        return {
            **summarize(self.per_round),
            "host_scale": statistics.median(self.scales),
            "host_scale_spread": spread(self.scales),
        }


def summarize(per_round: dict[str, list[list[float]]]) -> dict[str, Any]:
    """End-to-end numbers of a library workload from per-case round samples.

    ``per_round[case][round]`` is the list of call times (ms) that round made.
    ``op_ms_p50`` is the geometric mean over cases of the per-case median of
    round medians; ``ops_per_s`` calls completed per second of timed calls,
    median over rounds.  Each comes with the spread between its per-round
    values.  The per-case p95 over every call is a diagnostic row only.
    """
    names = list(per_round)
    n_rounds = len(per_round[names[0]])
    case_rows = []
    for name in names:
        samples = [ms for chunk in per_round[name] for ms in chunk]
        case_rows.append(
            {
                "case": name,
                "p50_ms": statistics.median(statistics.median(chunk) for chunk in per_round[name]),
                "p95_ms": pct(samples, 95),
                "samples": len(samples),
            }
        )
    round_p50 = [
        geomean(statistics.median(per_round[name][i]) for name in names) for i in range(n_rounds)
    ]
    round_rate = [
        sum(len(per_round[name][i]) for name in names)
        / (sum(sum(per_round[name][i]) for name in names) / 1e3)
        for i in range(n_rounds)
    ]
    return {
        "rounds": n_rounds,
        "cases": case_rows,
        "op_ms_p50": (geomean(row["p50_ms"] for row in case_rows), spread(round_p50)),
        "ops_per_s": (statistics.median(round_rate), spread(round_rate)),
        "samples": sum(row["samples"] for row in case_rows),
    }


def time_case(case: Case, call: Callable[[], Any], tally: Tally) -> list[float]:
    """One round's calls of one case; every output checked after its stamp."""
    times = []
    for _ in range(case.reps):
        elapsed, result = timed_ms(call)
        times.append(elapsed)
        tally.check(case.name, result, case.oracle, case.single)
    return times


def time_refs(case: Case, refs: dict[str, dict[str, list[float]]], tally: Tally) -> None:
    """The outside yardsticks of one case, in the same round as the case.

    A yardstick that disagrees with the oracle is reported as a failure too:
    a wrong yardstick would make every ratio against it meaningless.
    """
    for ref_name, ref in case.refs.items():
        elapsed, result = timed_ms(ref)
        refs.setdefault(case.group, {}).setdefault(ref_name, []).append(elapsed)
        if not matches(result, case.oracle, case.single):
            tally.fail(f"{case.group}/{ref_name}", "yardstick differs from the dense oracle")


class WarmKernels:
    """``kernel_spmm`` / ``kernel_indirect``: warm direct calls, one thread."""

    def __init__(self, seed: int, cases_of: Callable[[int], list[Case]]):
        self.cases = cases_of(seed)
        self.calls: list[Callable[[], Any]] = []
        self.yardstick = Yardstick()
        self.digest = workloads.digest([case.oracle for case in self.cases])

    def setup(self, tally: Tally) -> None:
        self.calls = []
        for case in self.cases:
            call = case.setup()
            tally.check(case.name, call(), case.oracle, case.single)
            self.calls.append(call)

    def measure(self, budget: Budget, tally: Tally) -> dict[str, Any]:
        timings = RoundSamples(self.cases)
        refs: dict[str, dict[str, list[float]]] = {}
        for _ in rounds(budget):
            times, yardstick_ms = {}, []
            round_refs: dict[str, dict[str, list[float]]] = {}
            for case, call in zip(self.cases, self.calls):
                times[case.name] = time_case(case, call, tally)
                time_refs(case, round_refs, tally)
                yardstick_ms.append(self.yardstick())
            scale = timings.add(times, yardstick_ms)
            for group, by_ref in round_refs.items():
                for ref_name, ref_ms in by_ref.items():
                    refs.setdefault(group, {}).setdefault(ref_name, []).extend(
                        ms * scale for ms in ref_ms
                    )
        summary = timings.summary()
        for case, row in zip(self.cases, summary["cases"]):
            for ref_name, samples in refs.get(case.group, {}).items():
                row[f"{ref_name}_ms"] = statistics.median(samples)
        return summary

    def teardown(self) -> None:
        self.calls = []


class ColdCompile:
    """Construct + first call with all four caches cleared before each one."""

    def __init__(self, seed: int):
        self.cases = workloads.cold_compile_cases(seed)
        self.digest = workloads.digest([case.oracle for case in self.cases])
        self.yardstick = Yardstick()

    def one_round(self, tally: Tally) -> tuple[dict[str, list[float]], list[float]]:
        times, yardstick_ms = {}, []
        for case in self.cases:
            fmt = case.build_format()
            clear_caches()
            elapsed, result = timed_ms(lambda: case.construct(fmt)())
            tally.check(case.name, result, case.oracle, case.single)
            times[case.name] = [elapsed]
            yardstick_ms.append(self.yardstick())
        return times, yardstick_ms

    def setup(self, tally: Tally) -> None:
        self.one_round(tally)

    def measure(self, budget: Budget, tally: Tally) -> dict[str, Any]:
        timings = RoundSamples(self.cases)
        for _ in rounds(budget):
            timings.add(*self.one_round(tally))
        return timings.summary()

    def teardown(self) -> None:
        pass


class PatternChurn:
    """Build a format from a never-seen matrix, then one call on a warm operator."""

    def __init__(self, seed: int):
        self.cases = workloads.pattern_churn_cases(seed)
        self.rng = workloads.stream(seed, "churn/ops")
        self.operators: list[SparseEinsum] = []
        self.digest = workloads.digest([case.base for case in self.cases])
        self.yardstick = Yardstick()

    def one_op(self, case, operator, tally: Tally) -> float:
        dense, oracle = case.fresh(self.rng)
        start = time.perf_counter()
        result = operator(A=case.build(dense), B=case.rhs)
        elapsed = (time.perf_counter() - start) * 1e3
        tally.check(case.name, result, oracle, case.single)
        return elapsed

    def setup(self, tally: Tally) -> None:
        self.operators = [SparseEinsum(SPMM) for _ in self.cases]
        for case, operator in zip(self.cases, self.operators):
            self.one_op(case, operator, tally)

    def measure(self, budget: Budget, tally: Tally) -> dict[str, Any]:
        timings = RoundSamples(self.cases)
        for _ in rounds(budget):
            times, yardstick_ms = {}, []
            for case, operator in zip(self.cases, self.operators):
                times[case.name] = [self.one_op(case, operator, tally) for _ in range(case.reps)]
                yardstick_ms.append(self.yardstick())
            timings.add(times, yardstick_ms)
        return timings.summary()

    def teardown(self) -> None:
        self.operators = []
