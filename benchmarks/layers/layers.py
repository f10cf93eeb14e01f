"""The traced run: every per-layer metric, one probe per group of layers.

Each probe times calls into one layer's public functions from outside, on
inputs made from the seed, and returns ``{metric name: value}``.  The serving
probe also switches on the spans the program already emits
(``repro.obs.trace.set_enabled(True)``) and reads them back through
``Future.trace()`` next to the suite's own spans around ``submit`` and the
wait for the result.  Nothing measured here enters an end-to-end metric: the
traced run exists to say where the time of the untraced runs went.

The run is the same whichever workload it is asked for — per-layer numbers
are properties of the layers, measured on the reference request and on the
cases and request mix the workloads use.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro import Insum, SparseEinsum
from repro.core.einsum.parser import parse_einsum
from repro.core.einsum.rewriting import rewrite_sparse_operand
from repro.core.inductor import InductorConfig, compile_plan
from repro.core.insum.planner import plan_insum
from repro.engine import derived_cache_size, path_cache_stats, specialize_plan
from repro.gateway import WireDecoder, WireEncoder
from repro.kernels import FullyConnectedTensorProduct, SparseConv3d
from repro.obs import trace as obs_trace
from repro.tuner import enumerate_candidates, get_decision_cache, profile_operand
from repro.tuner.auto import auto_format_with_decision

import workloads
from library import WarmKernels
from measure import (
    Budget,
    Tally,
    clear_caches,
    geomean,
    median_ms,
    pct,
    spread,
    timed_ms,
)
from serving import Stack, closed_loop, open_gateway, open_inline, open_loop, open_threaded
from spans import SpanLog
from workloads import SPMM, Case, Slot

#: Fixed open-loop diagnostic: 200 requests a second, 250 ms limit.
OPEN_RATE, OPEN_LIMIT_MS = 200.0, 250.0
PROGRAM_SPANS = {
    "runtime.queue_wait_us": "queue.wait",
    "runtime.execute_us": "execute",
    "cluster.admission_wait_us": "admission.wait",
    "cluster.queue_dispatch_us": "queue.dispatch",
    "cluster.codec_encode_us": "codec.encode",
    "cluster.ring_transit_us": "ring.transit",
    "cluster.codec_decode_us": "codec.decode",
    "cluster.codec_encode_result_us": "codec.encode_result",
    "cluster.ring_respond_us": "ring.respond",
    "gateway.decode_us": "gateway.decode",
    "gateway.wait_us": "gateway.wait",
    "gateway.respond_us": "gateway.respond",
}


@dataclass
class Lowered:
    """An SpMM case lowered by hand, through public functions only."""

    rewrite: Any
    tensors: dict[str, np.ndarray]
    compiled: Any
    #: The *kernel rung* of the ladder: ``compiled.run`` on the execution
    #: tensors, with none of ``SparseEinsum.__call__``'s rewrite memo,
    #: plan-cache lookup or bounds check around it.
    run: Callable[[], np.ndarray]


def lower(case: Case) -> Lowered:
    fmt = case.build_format()
    rows, n_cols = case.dense.shape[0], case.rhs.shape[1]
    tensors = {"B": case.rhs, "C": np.zeros((rows, n_cols))}
    shapes = {name: array.shape for name, array in tensors.items()}
    rewrite = rewrite_sparse_operand(parse_einsum(SPMM), fmt.rewrite_plan("A", ["m", "k"]), shapes)
    tensors.update(rewrite.tensors)
    for name, shape in rewrite.reshapes.items():
        tensors[name] = tensors[name].reshape(shape)
    if rewrite.output_reshape is not None:
        tensors["C"] = tensors["C"].reshape(rewrite.output_reshape)
    compiled = Insum(rewrite.expression).compile(**tensors)
    return Lowered(
        rewrite, tensors, compiled, lambda: compiled.run(tensors).reshape(rows, n_cols)
    )


# ---------------------------------------------------------------------------
# gateway wire (first: its byte counts must not depend on what ran before)
# ---------------------------------------------------------------------------
def probe_wire(mix: list[Slot], budget: Budget, log: SpanLog) -> dict[str, float]:
    """Encode and decode the request set on a warm encoder/decoder mirror."""
    encoder, decoder = WireEncoder(), WireDecoder()
    passes = budget.count(6, floor=2)
    encode_us, decode_us, sizes = [], [], []
    for index in range((passes + 1) * len(mix)):
        slot = mix[index % len(mix)]
        operands, _ = slot.request(index // len(mix))
        wall = time.time()
        start = time.perf_counter()
        content_type, body = encoder.encode_request(slot.expression, operands)
        middle = time.perf_counter()
        decoder.decode_request(content_type, body)
        end = time.perf_counter()
        if index < len(mix):
            continue  # the first pass ships every pattern: the mirror is cold
        encode_us.append((middle - start) * 1e6)
        decode_us.append((end - middle) * 1e6)
        sizes.append(len(body))
        request_id = log.new_request()
        log.add("suite.wire_encode", wall, wall + middle - start, request_id)
        log.add("suite.wire_decode", wall + middle - start, wall + end - start, request_id)
    return {
        "gateway.wire_encode_us": statistics.median(encode_us),
        "gateway.wire_decode_us": statistics.median(decode_us),
        "gateway.wire_bytes_per_req": statistics.mean(sizes[: len(mix)]),
    }


# ---------------------------------------------------------------------------
# formats, core, engine.specialize: the phases of one compilation
# ---------------------------------------------------------------------------
def probe_formats(seed: int, budget: Budget) -> dict[str, float]:
    rng = workloads.stream(seed, "probe/formats")
    reps = budget.count(9, floor=3)
    metrics: dict[str, float] = {}
    bytes_per_nnz = []
    for case in workloads.reference_churn_cases(seed):
        times = []
        for _ in range(reps):
            dense, _ = case.fresh(rng)
            elapsed, fmt = timed_ms(lambda: case.build(dense))
            times.append(elapsed)
        metrics[f"formats.build_ms.{case.family}"] = statistics.median(times)
        stored = sum(array.nbytes for array in fmt.tensors("A").values())
        bytes_per_nnz.append(stored / fmt.nnz)
    metrics["formats.bytes_per_nnz"] = geomean(bytes_per_nnz)
    return metrics


def probe_compile(cases: list[Case], budget: Budget) -> dict[str, float]:
    """parse -> rewrite -> plan -> compile -> specialize, each timed alone."""
    reps = budget.count(9, floor=3)
    conv, product = SparseConv3d.expression, FullyConnectedTensorProduct.expression
    expressions = [SPMM, workloads.SPMV, workloads.EQUIVARIANT_COO, conv, product]
    parse_us = [median_ms(lambda: parse_einsum(e), 20 * reps) * 1e3 for e in expressions]
    rewrite_us, plan_ms, compile_ms, specialize_ms, modeled_ms = [], [], [], [], []
    for case in cases:
        lowered = lower(case)
        rewrite, tensors = lowered.rewrite, lowered.tensors
        fmt = case.build_format()
        shapes = {"B": case.rhs.shape, "C": (case.dense.shape[0], case.rhs.shape[1])}
        statement = parse_einsum(SPMM)
        rewrite_us.append(
            median_ms(
                lambda: rewrite_sparse_operand(
                    statement, fmt.rewrite_plan("A", ["m", "k"]), shapes
                ),
                5 * reps,
            )
            * 1e3
        )
        plan_ms.append(median_ms(lambda: plan_insum(rewrite.expression, tensors), reps))
        plan = plan_insum(rewrite.expression, tensors)
        compile_ms.append(median_ms(lambda: compile_plan(plan), reps))
        specialize_ms.append(median_ms(lambda: specialize_plan(plan, InductorConfig()), 3 * reps))
        modeled_ms.append(compile_plan(plan).estimated_ms)
    return {
        "core.einsum.parse_us": geomean(parse_us),
        "core.einsum.rewrite_us": geomean(rewrite_us),
        "core.insum.plan_ms": geomean(plan_ms),
        "core.inductor.compile_ms": geomean(compile_ms),
        "core.inductor.modeled_gpu_ms": geomean(modeled_ms),
        "engine.specialize_ms": geomean(specialize_ms),
    }


# ---------------------------------------------------------------------------
# engine + ref: the kernel cases with their yardsticks in the same rounds
# ---------------------------------------------------------------------------
def probe_engine(seed: int, budget: Budget, tally: Tally) -> tuple[dict[str, float], list[dict]]:
    """Warm ``compiled.run`` per family beside the operator call, dense BLAS
    and ``scipy.sparse`` on the same operands, interleaved per round.

    For the conv and equivariant families the tensors are assembled inside
    the kernel class, so their ``run_us`` is the class's warm ``__call__``
    (the kernel plus two plan-cache lookups).  FLOPs come from
    ``plan.contraction_flops`` — computed from shapes, not counted.
    """
    spmm = WarmKernels(seed, workloads.kernel_spmm_cases)
    indirect = WarmKernels(seed, workloads.kernel_indirect_cases)
    spmm.setup(tally)
    indirect.setup(tally)
    lowered = [lower(case) for case in spmm.cases]
    kernels = [entry.run for entry in lowered]
    for case, kernel in zip(spmm.cases, kernels):
        tally.check(f"{case.name}/kernel", kernel(), case.oracle, case.single)

    run_ms: dict[str, list[float]] = {c.name: [] for c in spmm.cases + indirect.cases}
    call_ms: dict[str, list[float]] = {c.name: [] for c in spmm.cases}
    ref_ms: dict[str, dict[str, list[float]]] = {}
    for _ in range(budget.rounds or max(5, budget.count(5))):
        for case, call, kernel in zip(spmm.cases, spmm.calls, kernels):
            reps = max(1, case.reps // 2)
            call_ms[case.name].append(median_ms(call, reps))
            run_ms[case.name].append(median_ms(kernel, reps))
            for name, ref in case.refs.items():
                ref_ms.setdefault(case.group, {}).setdefault(name, []).append(timed_ms(ref)[0])
        for case, call in zip(indirect.cases, indirect.calls):
            run_ms[case.name].append(median_ms(call, max(1, case.reps // 2)))

    table = []
    for case in spmm.cases + indirect.cases:
        row = {
            "case": case.name,
            "family": case.family,
            "run_us": statistics.median(run_ms[case.name]) * 1e3,
        }
        if case.name in call_ms:
            row["call_us"] = statistics.median(call_ms[case.name]) * 1e3
            for name, samples in ref_ms[case.group].items():
                row[f"{name}_us"] = statistics.median(samples) * 1e3
        table.append(row)
    spmm_rows = table[: len(spmm.cases)]
    groups = [row for case, row in zip(spmm.cases, spmm_rows) if case.refs]  # one per operands
    metrics = {
        f"engine.run_us.{family}": geomean(r["run_us"] for r in table if r["family"] == family)
        for family in dict.fromkeys(row["family"] for row in table)
    }
    metrics["engine.gflops"] = geomean(
        entry.compiled.plan.contraction_flops / (row["run_us"] * 1e-6) / 1e9
        for entry, row in zip(lowered, spmm_rows)
    )
    metrics["core.insum.call_overhead_us"] = statistics.median(
        row["call_us"] - row["run_us"] for row in spmm_rows if row["case"].startswith("ref")
    )
    metrics["ref.dense_blas_us"] = geomean(row["dense_us"] for row in groups)
    metrics["ref.vs_dense_ratio"] = geomean(row["call_us"] / row["dense_us"] for row in spmm_rows)
    if all("scipy_us" in row for row in groups):
        metrics["ref.scipy_us"] = geomean(row["scipy_us"] for row in groups)
        metrics["ref.vs_scipy_ratio"] = geomean(
            row["call_us"] / row["scipy_us"] for row in spmm_rows
        )
    metrics["ref.host_noise_share"] = statistics.median(
        spread(samples["dense"]) for samples in ref_ms.values()
    )
    metrics["engine.new_pattern_penalty_us"] = new_pattern_penalty(spmm, budget, tally)
    hits, misses = path_cache_stats()
    metrics["engine.path_cache_hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
    metrics["engine.derived_cache_entries"] = float(derived_cache_size())
    return metrics, table


def new_pattern_penalty(spmm: WarmKernels, budget: Budget, tally: Tally) -> float:
    """First call on a fresh format instance minus the warm call, reference
    GroupCOO: what every identity-keyed memo costs a pattern seen once."""
    case = next(c for c in spmm.cases if c.name == "ref256x192/groupcoo")
    operator = SparseEinsum(SPMM)
    operator(A=case.build_format(), B=case.rhs)
    penalties = []
    for _ in range(budget.count(9, floor=3)):
        fmt = case.build_format()
        first, result = timed_ms(lambda: operator(A=fmt, B=case.rhs))
        tally.check(case.name, result, case.oracle, case.single)
        penalties.append((first - median_ms(lambda: operator(A=fmt, B=case.rhs), 5)) * 1e3)
    return statistics.median(penalties)


# ---------------------------------------------------------------------------
# tuner
# ---------------------------------------------------------------------------
def probe_tuner(seed: int, budget: Budget, tally: Tally) -> dict[str, float]:
    cache = get_decision_cache()
    cache.clear()
    profile_ms, choose_ms, ratios = [], [], []
    for name, dense, rhs in workloads.tuner_regimes(seed):
        oracle = dense @ rhs
        profile_ms.append(median_ms(lambda: profile_operand(dense), budget.count(5, floor=2)))
        elapsed, (_, decision) = timed_ms(lambda: auto_format_with_decision(dense, n_cols=64))
        choose_ms.append(elapsed)
        for _ in range(3):
            auto_format_with_decision(dense, n_cols=64)  # decision-cache hits
        timings = {}
        operators = []
        for candidate in enumerate_candidates(profile_operand(dense)):
            operand, operator = candidate.build(dense), SparseEinsum(SPMM)
            tally.check(f"tuner/{name}", operator(A=operand, B=rhs), oracle, single=False)
            operators.append((candidate.describe(), operator, operand))
        for _ in range(5):
            for label, operator, operand in operators:
                elapsed, _ = timed_ms(lambda: operator(A=operand, B=rhs))
                timings[label] = min(timings.get(label, elapsed), elapsed)
        ratios.append(timings[decision.candidate.describe()] / min(timings.values()))
    return {
        "tuner.profile_ms": geomean(profile_ms),
        "tuner.choose_ms": geomean(choose_ms),
        "tuner.decision_hit_rate": cache.hits / (cache.hits + cache.misses),
        "tuner.auto_vs_best_ratio": geomean(ratios),
    }


# ---------------------------------------------------------------------------
# serve, cluster, gateway, obs: the ladder and the traced passes
# ---------------------------------------------------------------------------
def reference_rungs(case: Case, stacks: dict[str, Stack]) -> dict[str, Callable[[], np.ndarray]]:
    """The same request at every layer boundary, one outstanding."""
    fmt = case.build_format()
    operator = SparseEinsum(SPMM)
    rungs: dict[str, Callable[[], np.ndarray]] = {
        "kernel": lower(case).run,
        "operator": lambda: operator(A=fmt, B=case.rhs.copy()),
    }
    for name, stack in stacks.items():
        rungs[name] = lambda s=stack: s.submit(SPMM, A=fmt, B=case.rhs.copy()).result(timeout=30)
    return rungs


def probe_ladder(
    case: Case, stacks: dict[str, Stack], budget: Budget, tally: Tally
) -> tuple[dict[str, float], list[dict]]:
    """kernel -> operator -> inline -> threaded -> cluster -> gateway, the
    boundaries interleaved within each round, yardsticks beside them."""
    rungs = reference_rungs(case, stacks)
    rungs.update({f"ref.{name}": ref for name, ref in case.refs.items()})
    for name, call in rungs.items():
        tally.check(f"ladder/{name}", call(), case.oracle, case.single)  # warm + check
    per_round: dict[str, list[float]] = {name: [] for name in rungs}
    requests = budget.count(20, floor=10)
    for _ in range(budget.rounds or 5):
        for name, call in rungs.items():
            times = []
            for _ in range(requests):
                elapsed, result = timed_ms(call)
                times.append(elapsed)
                tally.check(f"ladder/{name}", result, case.oracle, case.single)
            per_round[name].append(statistics.median(times) * 1e3)
    ladder = [
        {"rung": name, "us": statistics.median(values), "spread": spread(values)}
        for name, values in per_round.items()
    ]

    def added(upper: str, lower_rung: str) -> float:
        return statistics.median(u - l for u, l in zip(per_round[upper], per_round[lower_rung]))

    return {
        "serve.inline_overhead_us": added("inline", "operator"),
        "serve.threaded_overhead_us": added("threaded", "inline"),
        "cluster.overhead_us": added("cluster", "threaded"),
        "gateway.overhead_us": added("gateway", "cluster"),
    }, ladder


def mixed_pass(
    open_stack: Callable[[], Stack], mix, outstanding, requests, traced, tally, log
) -> dict[str, Any]:
    """One closed-loop pass over the mix on a stack started with tracing on
    or off (worker processes inherit the switch when they start).

    Returns the latencies, the session's stats over the pass, and the range
    of request ids the pass logged spans under (empty when untraced).
    """
    obs_trace.set_enabled(traced)
    stack = open_stack()
    try:
        closed_loop(stack.submit, mix, 1, len(mix), tally)
        closed_loop(stack.submit, mix, outstanding, requests // 4, tally, first=len(mix))
        stack.session.reset_stats()
        first_id = log.requests
        latencies, _ = closed_loop(
            stack.submit, mix, outstanding, requests, tally,
            first=requests, log=log if traced else None,
        )
        stats = stack.session.stats()
        return {"latencies": latencies, "stats": stats, "ids": (first_id, log.requests)}
    finally:
        stack.close()
        obs_trace.set_enabled(False)


def probe_stacks(
    seed: int, mix: list[Slot], budget: Budget, tally: Tally
) -> tuple[dict[str, float], list[dict]]:
    """The ladder and the open-loop diagnostic on one set of stacks, tracing
    off.  The cluster starts first: it forks, and a fork should not happen
    under another stack's threads."""
    case = workloads.reference_cases(seed, formats=("groupcoo",))[0]
    obs_trace.set_enabled(False)
    start = time.perf_counter()
    gateway = open_gateway()
    first = gateway.session.submit(SPMM, A=case.build_format(), B=case.rhs).result(timeout=60)
    metrics = {"cluster.start_s": time.perf_counter() - start}
    tally.check("cluster/first", first, case.oracle, case.single)
    threaded, inline = open_threaded(), open_inline()
    try:
        stacks = {
            "inline": inline,
            "threaded": threaded,
            "cluster": Stack(gateway.session),
            "gateway": gateway,
        }
        ladder_metrics, ladder = probe_ladder(case, stacks, budget, tally)
        metrics.update(ladder_metrics)
        closed_loop(gateway.submit, mix, 1, len(mix), tally)
        seconds = 3.0 * min(1.0, budget.scale)
        opened = open_loop(gateway.submit, mix, OPEN_RATE, seconds, OPEN_LIMIT_MS, tally)
        stats = gateway.session.stats()
    finally:
        inline.close()
        threaded.close()
        gateway.close()
    metrics["gateway.open200_ms_p50"] = opened["p50_ms"]
    metrics["gateway.open200_ms_p95"] = opened["p95_ms"]
    metrics["gateway.open200_sched_lag_ms_p95"] = opened["sched_lag_ms_p95"]
    metrics["gateway.open200_attainment"] = opened["attainment"]
    metrics["cluster.restarts"] = float(stats.restarts)
    metrics["cluster.retries"] = float(stats.requeued)
    return metrics, ladder


def probe_mixed_passes(
    mix: list[Slot], budget: Budget, tally: Tally, log: SpanLog
) -> tuple[dict[str, float], dict[str, Any]]:
    """Closed-loop passes over the mix, untraced and traced alternating.

    Latencies are pooled per (stack, traced); spans are summarised over the
    last traced pass of each stack.
    """
    plans = {
        "threaded": (open_threaded, 8, budget.count(320, floor=64)),
        "gateway": (open_gateway, 4, budget.count(160, floor=32)),
    }
    metrics: dict[str, float] = {}
    detail: dict[str, Any] = {}
    lat: dict[tuple[str, bool], list[float]] = {}
    span_ids: dict[str, tuple[int, int]] = {}
    for traced in (False, True, False, True):
        for name, (open_stack, outstanding, requests) in plans.items():
            done = mixed_pass(open_stack, mix, outstanding, requests, traced, tally, log)
            lat.setdefault((name, traced), []).extend(done["latencies"])
            if traced:
                span_ids[name] = done["ids"]
            elif name == "threaded":
                stats = done["stats"]
                detail["threaded_session"] = stats.summary().splitlines()
                metrics["runtime.plan_cache_hit_rate"] = stats.cache_hit_rate
                metrics["runtime.coalesce_rate"] = stats.coalesce_rate
                metrics["runtime.coalesced_batch_mean"] = (
                    stats.coalesced_requests / stats.coalesced_batches
                    if stats.coalesced_batches
                    else 0.0
                )
    log.resolve_parents()
    summaries = {name: log.summary(*ids) for name, ids in span_ids.items()}
    detail["self_time"] = summaries
    for metric, span_name in PROGRAM_SPANS.items():
        source = summaries["threaded" if metric.startswith("runtime.") else "gateway"]
        metrics[metric] = source["self_us"].get(span_name, 0.0)
    served = summaries["gateway"]
    metrics["gateway.client_side_us"] = served["layer_us"].get("client", 0.0)
    metrics["obs.span_coverage_share"] = served["coverage"]
    metrics["obs.negative_span_share"] = served["broken"]
    untraced = lat[("gateway", False)]
    metrics["obs.trace_overhead_share"] = (
        statistics.median(lat[("gateway", True)]) / statistics.median(untraced) - 1
    )
    metrics["serve.op_ms_p95"] = pct(untraced, 95)
    metrics["serve.op_ms_p99"] = pct(untraced, 99)
    detail["trace_overhead"] = {
        f"{name}_{'traced' if traced else 'untraced'}_p50_ms": statistics.median(values)
        for (name, traced), values in lat.items()
    }
    return metrics, detail


def run(seed: int, budget: Budget, spans_path: Path) -> dict[str, Any]:
    """The whole traced run: ``{"metrics": ..., "detail": ..., "tally": ...}``."""
    tally, log = Tally(), SpanLog()
    mix = workloads.serving_mix(seed)
    clear_caches()
    # The wire probe first (its byte counts must not depend on what ran
    # before), then the serving stacks while the process is still small: a
    # cluster forked from a process holding the kernel cases' matrices starts
    # ten times slower and its ladder rungs read twice as long.
    metrics = probe_wire(mix, budget, log)
    stack_metrics, ladder = probe_stacks(seed, mix, budget, tally)
    pass_metrics, detail = probe_mixed_passes(mix, budget, tally, log)
    metrics.update(stack_metrics)
    metrics.update(pass_metrics)
    detail["ladder"] = ladder
    metrics.update(probe_formats(seed, budget))
    metrics.update(probe_compile(workloads.spmm_family_cases(seed), budget))
    engine_metrics, kernel_table = probe_engine(seed, budget, tally)
    metrics.update(engine_metrics)
    metrics.update(probe_tuner(seed, budget, tally))
    metrics["failed_share"] = tally.failed_share
    log.write(spans_path)
    detail["kernels"] = kernel_table
    detail["spans_file"] = str(spans_path)
    detail["spans"] = len(log.spans)
    return {"metrics": metrics, "detail": detail, "tally": tally}
