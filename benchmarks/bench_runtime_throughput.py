"""Serving-runtime throughput and its gates, tracked in JSON.

Not a paper figure — this harness tracks the serving layer (`repro.runtime`)
on top of the compiler and its executor (`repro.engine`).  It records
absolute numbers and the gates CI holds; how far each layer sits from an
outside yardstick (dense BLAS, ``scipy.sparse``) is the job of
``benchmarks/layers``.

* **server** — threaded-session req/s and latency on the mixed workload
  with same-plan coalescing, with the plan-cache hit rate and the coalesce
  rate it reaches.
* ``StackedSparse`` batched execution vs the per-item Python loop.
* One-shot ``insum()`` compile saving from the process-wide plan cache.
* **cluster vs threaded** (``--cluster``) — an open-loop load generator
  drives the same mixed workload through ``Session(backend="cluster")``
  and ``Session(backend="threaded")``, reporting req/s and p50/p95/p99
  for both.  Skipped on single-core machines, where a process pool
  cannot beat one GIL.
* **ops scrape** (smoke entry point) — serves a workload slice with the
  :meth:`Session.serve_ops` endpoint up, scrapes ``/metrics`` and
  ``/healthz`` once, and fails on malformed Prometheus text or an
  unhealthy report (see ``docs/OBSERVABILITY.md``).
* **trace replay** (``--trace FILE``) — replays a committed workload
  trace (``docs/REPLAY.md``) open-loop through the cluster backend and
  records the ``SLOReport``; the smoke gate holds ``slo_attainment``
  to an absolute floor next to the ratio checks.

All serving measurements run through the :class:`repro.serve.Session`
front door (futures, :class:`ServeConfig`), so the benchmark covers the
surface production callers actually use.

Every metric lands in ``benchmarks/results/BENCH_runtime.json`` (schema
documented in ``docs/PERFORMANCE.md``).  The CI smoke job reruns a reduced
workload via ``python benchmarks/bench_runtime_throughput.py --smoke`` and
``scripts/check_bench_regression.py`` fails the build when a gated ratio
regresses by more than 25% against the committed baseline.

Determinism: every RNG stream derives from one base seed (the ``--seed``
flag here, the ``seed`` fixture under pytest) through named
:func:`repro.utils.rng` streams — no global RNG is ever seeded — so the
smoke gate measures the same workload run-to-run.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from repro import (
    ServeConfig,
    Session,
    SparseEinsum,
    StackedSparse,
    clear_plan_cache,
    get_plan_cache,
    insum,
)
from repro.formats import COO, GroupCOO
from repro.kernels import FullyConnectedTensorProduct
from repro.utils.rng import rng as rng_stream
from repro.utils.timing import Timer

NUM_REQUESTS = 160
STACK_SIZE = 32
DEFAULT_SEED = 7
RESULTS_JSON = Path(__file__).parent / "results" / "BENCH_runtime.json"
DEFAULT_TRACE = Path(__file__).parent / "traces" / "mixed_smoke.jsonl"

#: Absolute floors for trace-replay metrics (dotted paths into "metrics"),
#: enforced by scripts/check_bench_regression.py when the matching
#: section (the path's first component) is present in the record.
ATTAINMENT_KEYS = {
    "replay.slo_attainment": 0.99,
    "gateway.slo_attainment": 0.95,
}

#: Collected across the tests in this module, flushed to RESULTS_JSON by
#: the final test (and by the --smoke entry point).
RECORD: dict = {}


# ---------------------------------------------------------------------------
# Workload construction
# ---------------------------------------------------------------------------
def build_workload(num_requests: int = NUM_REQUESTS, seed: int = DEFAULT_SEED) -> list:
    """The mixed serving workload: weighted SpMM/SpMV traffic + equivariant.

    Mirrors a serving steady state: most requests are repeated logical
    SpMM/SpMV expressions over a handful of long-lived sparse patterns
    (fresh dense values per request — the coalescing sweet spot), with an
    equivariant tensor-product request every 8th slot exercising the raw
    indirect-Einsum path.
    """
    rng = rng_stream(seed, "bench/workload")
    spmm_small = GroupCOO.from_dense(
        np.where(rng.random((128, 192)) < 0.05, rng.standard_normal((128, 192)), 0.0),
        group_size=4,
    )
    spmm_large = GroupCOO.from_dense(
        np.where(rng.random((256, 256)) < 0.03, rng.standard_normal((256, 256)), 0.0),
        group_size=4,
    )
    spmv = COO.from_dense(
        np.where(rng.random((192, 192)) < 0.05, rng.standard_normal((192, 192)), 0.0)
    )
    equivariant = FullyConnectedTensorProduct(l_max=1, channels=8)
    x, y, w = equivariant.random_inputs(batch=4, rng=rng)
    z = np.zeros((4, equivariant.slot_dimension, equivariant.channels))
    recipes = [
        ("C[m,n] += A[m,k] * B[k,n]", lambda: dict(A=spmm_small, B=rng.standard_normal((192, 16)))),
        ("C[m,n] += A[m,k] * B[k,n]", lambda: dict(A=spmm_large, B=rng.standard_normal((256, 16)))),
        ("y[m] += A[m,k] * x[k]", lambda: dict(A=spmv, x=rng.standard_normal(192))),
        (
            equivariant.expression,
            lambda: dict(Z=z.copy(), X=x, Y=y, W=w, **equivariant._grouped),
        ),
    ]
    pattern = [0, 0, 1, 2, 0, 1, 2, 3]  # SpMM-heavy, equivariant every 8th
    return [
        (recipes[pattern[i % len(pattern)]][0], recipes[pattern[i % len(pattern)]][1]())
        for i in range(num_requests)
    ]


# ---------------------------------------------------------------------------
# Measurements (shared by the pytest harness and the --smoke entry point)
# ---------------------------------------------------------------------------
def measure_server_throughput(workload: list, rounds: int = 3) -> dict:
    """Best-of-``rounds`` req/s of the coalescing threaded server.

    Serves through the ``repro.serve`` front door —
    ``Session(backend="threaded")`` with a :class:`ServeConfig` — so the
    benchmark exercises exactly the surface production callers use.
    """
    clear_plan_cache()
    with Session(backend="threaded", config=ServeConfig(workers=4, coalesce=True)) as session:
        for future in session.submit_many(workload[: max(8, len(workload) // 3)]):
            future.result()  # warm compiles; raises on any failure
        best = None
        for _ in range(rounds):
            session.reset_stats()
            for future in session.submit_many(workload):
                future.result()
            stats = session.stats()
            if best is None or stats.throughput_rps > best.throughput_rps:
                best = stats
    return {
        "rps": round(best.throughput_rps, 1),
        "p50_ms": round(best.p50_latency_ms, 4),
        "p99_ms": round(best.p99_latency_ms, 4),
        "hit_rate": round(best.cache_hit_rate, 4),
        "coalesce_rate": round(best.coalesce_rate, 4),
    }


def open_loop_load(session, workload: list, rate_rps: float | None = None) -> dict:
    """Drive a :class:`Session` with an open-loop load generator.

    Requests are submitted at fixed inter-arrival times (``1/rate_rps``
    seconds apart; unpaced burst when ``rate_rps`` is None) regardless of
    completions — the open-loop discipline, which unlike closed-loop
    run-and-wait exposes queueing delay when the server cannot keep up.
    Returns achieved req/s plus end-to-end latency percentiles.
    """
    futures = []
    start = time.perf_counter()
    for index, (expression, operands) in enumerate(workload):
        if rate_rps is not None:
            target = start + index / rate_rps
            delay = target - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
        futures.append(session.submit(expression, **operands))
    for future in futures:
        future.result()  # raises on any failed request
    elapsed = time.perf_counter() - start
    from repro.utils.timing import summarize

    summary = summarize(future.latency_ms for future in futures)
    return {
        "rps": round(len(futures) / elapsed, 1),
        "p50_ms": round(summary.p50_ms, 4),
        "p95_ms": round(summary.p95_ms, 4),
        "p99_ms": round(summary.p99_ms, 4),
    }


def measure_cluster_throughput(
    workload: list,
    num_workers: int = 2,
    worker_threads: int = 2,
    rounds: int = 3,
    rate_rps: float | None = None,
) -> dict:
    """Open-loop req/s and latency: cluster session vs the threaded session.

    The threaded baseline gets the same total worker-thread count as the
    cluster (``num_workers * worker_threads``) so the comparison isolates
    the process-vs-thread execution model, not a parallelism mismatch.
    """
    warmup = workload[: max(8, len(workload) // 3)]
    clear_plan_cache()
    threaded_config = ServeConfig(workers=num_workers * worker_threads)
    with Session(backend="threaded", config=threaded_config) as threaded:
        for future in threaded.submit_many(warmup):
            future.result()
        threaded_best = None
        for _ in range(rounds):
            measured = open_loop_load(threaded, workload, rate_rps=rate_rps)
            if threaded_best is None or measured["rps"] > threaded_best["rps"]:
                threaded_best = measured
    cluster_config = ServeConfig(
        workers=num_workers, worker_threads=worker_threads, max_inflight=4096
    )
    with Session(backend="cluster", config=cluster_config) as cluster:
        for future in cluster.submit_many(warmup):
            future.result()
        cluster.reset_stats()  # coalesce/cache rates cover measured rounds only
        cluster_best = None
        for _ in range(rounds):
            measured = open_loop_load(cluster, workload, rate_rps=rate_rps)
            if cluster_best is None or measured["rps"] > cluster_best["rps"]:
                cluster_best = measured
        cluster_stats = cluster.stats()
    return {
        "num_workers": num_workers,
        "worker_threads": worker_threads,
        "threaded_rps": threaded_best["rps"],
        "cluster_rps": cluster_best["rps"],
        "speedup": round(cluster_best["rps"] / threaded_best["rps"], 3),
        "threaded_p50_ms": threaded_best["p50_ms"],
        "threaded_p95_ms": threaded_best["p95_ms"],
        "threaded_p99_ms": threaded_best["p99_ms"],
        "cluster_p50_ms": cluster_best["p50_ms"],
        "cluster_p95_ms": cluster_best["p95_ms"],
        "cluster_p99_ms": cluster_best["p99_ms"],
        "coalesce_rate": round(cluster_stats.coalesce_rate, 4),
        "restarts": cluster_stats.restarts,
    }


def scrape_ops_endpoint(workload: list, num_requests: int = 32) -> dict:
    """Serve a workload slice with the ops endpoint up and scrape it once.

    The CI smoke job's observability gate: ``/metrics`` must parse as
    well-formed Prometheus text (``validate_prometheus_text``) and
    ``/healthz`` must report ``status == "ok"`` — a malformed exposition
    or an unhealthy pool raises ``RuntimeError`` and fails the build.
    """
    import urllib.request

    from repro.obs.metrics import validate_prometheus_text

    with Session(backend="threaded", config=ServeConfig(workers=4)) as session:
        ops = session.serve_ops()
        for future in session.submit_many(workload[:num_requests]):
            future.result()
        metrics_body = (
            urllib.request.urlopen(ops.url("/metrics"), timeout=10).read().decode("utf-8")
        )
        health = json.loads(
            urllib.request.urlopen(ops.url("/healthz"), timeout=10).read().decode("utf-8")
        )
    problems = validate_prometheus_text(metrics_body)
    if problems:
        raise RuntimeError(
            "malformed Prometheus exposition from /metrics: " + "; ".join(problems)
        )
    if health.get("status") != "ok":
        raise RuntimeError(f"/healthz reported unhealthy state: {health}")
    return {
        "metrics_bytes": len(metrics_body),
        "metric_families": sum(1 for ln in metrics_body.splitlines() if ln.startswith("# TYPE")),
        "health_status": health.get("status"),
    }


def measure_trace_replay(trace_path: Path, backend: str | None = None) -> dict:
    """Replay a committed workload trace open-loop; report SLO attainment.

    Digests are refreshed on this machine first (result bits depend on
    the local BLAS — see ``docs/REPLAY.md``), then the trace is replayed
    in real time through an uncoalesced session so every result digest
    is verified.  The returned section carries ``slo_attainment``, which
    the regression gate holds to the :data:`ATTAINMENT_KEYS` floor.
    """
    from repro.replay import read_trace, replay

    if backend is None:
        backend = "cluster" if (os.cpu_count() or 1) >= 2 else "threaded"
    trace = read_trace(trace_path)
    trace.refresh_digests()
    config = ServeConfig(workers=2, coalesce=False)
    with Session(backend=backend, config=config) as session:
        report = replay(trace, session, time_scale=1.0)
    problems = report.invariant_violations()
    if problems:
        raise RuntimeError(f"trace replay violated invariants: {problems}")
    summary = report.to_dict()
    return {
        "trace": report.trace_name,
        "backend": report.backend,
        "submitted": report.submitted,
        "completed": report.completed,
        "failed": report.failed,
        "digest_checked": report.digest_checked,
        "slo_attainment": summary["slo_attainment"],
        "goodput_rps": summary["goodput_rps"],
        "p50_ms": summary["latency_ms"]["p50"],
        "p99_ms": summary["latency_ms"]["p99"],
    }


def measure_gateway_replay(trace_path: Path, backend: str | None = None) -> dict:
    """Replay the committed trace through a *live HTTP gateway*.

    The same trace and uncoalesced session as :func:`measure_trace_replay`,
    but every request crosses the wire: a ``GatewayServer`` rides the
    session, a ``GatewayClient`` with per-tenant API keys replays the
    trace over HTTP (binary operand encoding), and a ``/metrics`` scrape
    taken mid-replay must expose valid ``repro_gateway_*`` series with
    tenant labels.  The returned ``slo_attainment`` is gated to the
    ``gateway.slo_attainment`` floor in :data:`ATTAINMENT_KEYS`.
    """
    import threading
    import urllib.request

    from repro import GatewayClient, GatewayConfig
    from repro.obs.metrics import validate_prometheus_text
    from repro.replay import read_trace, replay

    if backend is None:
        backend = "cluster" if (os.cpu_count() or 1) >= 2 else "threaded"
    trace = read_trace(trace_path)
    trace.refresh_digests()
    tenant_keys = {tenant: f"bench-key-{tenant}" for tenant in trace.tenants()}
    config = ServeConfig(workers=2, coalesce=False)
    scraped: list[str] = []
    with Session(backend=backend, config=config) as session:
        server = session.serve_gateway(
            config=GatewayConfig(api_keys={key: t for t, key in tenant_keys.items()})
        )
        ops = session.serve_ops()

        def scrape_mid_replay() -> None:
            time.sleep(0.25)
            try:
                with urllib.request.urlopen(ops.url("/metrics"), timeout=10) as response:
                    scraped.append(response.read().decode("utf-8"))
            except OSError:
                pass  # retried synchronously below

        scraper = threading.Thread(target=scrape_mid_replay, daemon=True)
        scraper.start()
        with GatewayClient(
            f"http://127.0.0.1:{server.port}", tenant_keys=tenant_keys
        ) as client:
            report = replay(trace, client, verify=True, time_scale=1.0)
        scraper.join(timeout=15)
        if not scraped:
            with urllib.request.urlopen(ops.url("/metrics"), timeout=10) as response:
                scraped.append(response.read().decode("utf-8"))
    problems = report.invariant_violations()
    if problems:
        raise RuntimeError(f"gateway replay violated invariants: {problems}")
    metrics_body = scraped[0]
    problems = validate_prometheus_text(metrics_body)
    if problems:
        raise RuntimeError(
            "malformed Prometheus exposition from /metrics: " + "; ".join(problems)
        )
    gateway_series = [
        line
        for line in metrics_body.splitlines()
        if line.startswith("repro_gateway_requests_total") and "tenant=" in line
    ]
    if not gateway_series:
        raise RuntimeError(
            "/metrics scrape carries no repro_gateway_requests_total series "
            "with tenant labels"
        )
    summary = report.to_dict()
    return {
        "trace": report.trace_name,
        "backend": f"gateway+{backend}",
        "submitted": report.submitted,
        "completed": report.completed,
        "failed": report.failed,
        "digest_checked": report.digest_checked,
        "digest_mismatches": report.digest_mismatches,
        "tenants": len(tenant_keys),
        "gateway_series": len(gateway_series),
        "slo_attainment": summary["slo_attainment"],
        "goodput_rps": summary["goodput_rps"],
        "p50_ms": summary["latency_ms"]["p50"],
        "p99_ms": summary["latency_ms"]["p99"],
    }


def write_bench_json(record: dict, path: Path = RESULTS_JSON, profile: str = "full") -> None:
    """Write the machine-readable benchmark record (see docs/PERFORMANCE.md)."""
    payload = {
        "schema": "repro-bench-runtime/1",
        "profile": profile,
        "metrics": record,
        # The ratio metrics the CI regression gate compares (machine-portable,
        # unlike absolute req/s).  Dotted paths into "metrics".
        "ratio_keys": ["stacked.speedup", "one_shot.saving"],
    }
    # Absolute floors (not ratios): SLO attainment must stay >= the
    # floor on every machine, so no baseline comparison is needed.  Only
    # floors whose section was actually measured are attached — the gate
    # fails on a floor with no metric behind it.
    floors = {
        key: floor for key, floor in ATTAINMENT_KEYS.items()
        if key.split(".", 1)[0] in record
    }
    if floors:
        payload["attainment_keys"] = floors
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# pytest harness (full profile, with the acceptance assertions)
# ---------------------------------------------------------------------------
def test_server_throughput(report, seed):
    """The mixed workload is served from the plan cache and coalesced."""
    workload = build_workload(seed=seed)
    server = measure_server_throughput(workload)
    RECORD["server"] = server

    assert server["hit_rate"] > 0.9
    assert server["coalesce_rate"] > 0.5

    from repro.analysis import format_table

    report(
        "runtime_throughput",
        format_table(
            ["metric", "value"],
            [
                ["requests", NUM_REQUESTS],
                ["req/s", server["rps"]],
                ["p50 ms", server["p50_ms"]],
                ["p99 ms", server["p99_ms"]],
                ["cache hit rate", server["hit_rate"]],
                ["coalesce rate", server["coalesce_rate"]],
            ],
            title=f"InsumServer — mixed workload ({NUM_REQUESTS} requests, 4 workers)",
        ),
    )


def test_cluster_vs_threaded_throughput(report, seed):
    """Cluster vs threaded req/s, recorded as absolute numbers (no gate:
    which tier wins depends on the host's core count).

    A process pool cannot beat a single GIL on one core, so the
    comparison only runs on multi-core machines.
    """
    import pytest

    if (os.cpu_count() or 1) < 2:
        pytest.skip("cluster-vs-threaded comparison needs >= 2 cores")
    workload = build_workload(seed=seed)
    cluster = measure_cluster_throughput(workload)
    RECORD["cluster"] = cluster

    from repro.analysis import format_table

    report(
        "runtime_cluster_throughput",
        format_table(
            ["metric", "threaded", "cluster"],
            [
                ["req/s", cluster["threaded_rps"], cluster["cluster_rps"]],
                ["p50 ms", cluster["threaded_p50_ms"], cluster["cluster_p50_ms"]],
                ["p95 ms", cluster["threaded_p95_ms"], cluster["cluster_p95_ms"]],
                ["p99 ms", cluster["threaded_p99_ms"], cluster["cluster_p99_ms"]],
                ["speedup", "", f"{cluster['speedup']}x"],
            ],
            title=(
                f"ClusterServer ({cluster['num_workers']} workers) vs threaded "
                f"InsumServer — open-loop mixed workload"
            ),
        ),
    )


def stacked_paths(stack: np.ndarray, dense: np.ndarray):
    """``(widened, per_item_loop)`` thunks over one GroupCOO-stacked batch:
    the single stacked Einsum, and the Python loop of per-item Einsums it
    replaces."""
    batch = StackedSparse.from_dense(stack, GroupCOO, group_size=4)
    widened = SparseEinsum("C[s,m,n] += A[s,m,k] * B[k,n]")

    def per_item_loop() -> np.ndarray:
        operator = SparseEinsum("C[m,n] += A[m,k] * B[k,n]")
        return np.stack([operator(A=item, B=dense) for item in batch.items()])

    return (lambda: widened(A=batch, B=dense)), per_item_loop


def test_stacked_batch_beats_per_item_loop(report, seed):
    rng = rng_stream(seed, "bench/stacked")
    mask = rng.random((96, 128)) < 0.08
    stack = np.where(mask[None], rng.standard_normal((STACK_SIZE, 96, 128)), 0.0)
    dense = rng.standard_normal((128, 24))
    widened, per_item_loop = stacked_paths(stack, dense)

    # Warm both paths before timing.
    np.testing.assert_allclose(widened(), per_item_loop(), atol=1e-10)

    repeats = 5
    with Timer() as batched_timer:
        for _ in range(repeats):
            widened()
    with Timer() as loop_timer:
        for _ in range(repeats):
            per_item_loop()

    speedup = loop_timer.elapsed / batched_timer.elapsed
    # The acceptance bar: one widened Einsum over the (stack, nnz) data
    # array must beat the per-item Python loop on wall-clock.
    assert batched_timer.elapsed < loop_timer.elapsed
    RECORD["stacked"] = {
        "stack_size": STACK_SIZE,
        "batched_s_per_iter": round(batched_timer.elapsed / repeats, 6),
        "loop_s_per_iter": round(loop_timer.elapsed / repeats, 6),
        "speedup": round(speedup, 3),
    }

    from repro.analysis import format_table

    report(
        "runtime_stacked_speedup",
        format_table(
            ["metric", "value"],
            [
                ["stack size", STACK_SIZE],
                ["batched s/iter", f"{batched_timer.elapsed / repeats:.5f}"],
                ["per-item loop s/iter", f"{loop_timer.elapsed / repeats:.5f}"],
                ["speedup", f"{speedup:.2f}x"],
            ],
            title="StackedSparse widened Einsum vs per-item sparse_einsum loop",
        ),
    )


def test_one_shot_compile_saving(report, seed):
    """The plan-cache satellite: repeated one-shot insum() calls stop recompiling."""
    rng = rng_stream(seed, "bench/one-shot")
    dense = np.where(rng.random((64, 96)) < 0.1, rng.standard_normal((64, 96)), 0.0)
    coo = COO.from_dense(dense)
    tensors = dict(
        C=np.zeros((64, 32)),
        AV=coo.values,
        AM=coo.coords[0],
        AK=coo.coords[1],
        B=rng.standard_normal((96, 32)),
    )
    expression = "C[AM[p],n] += AV[p] * B[AK[p],n]"

    clear_plan_cache()
    with Timer() as cold_timer:
        insum(expression, **tensors)
    repeats = 20
    with Timer() as warm_timer:
        for _ in range(repeats):
            insum(expression, **tensors)
    warm_per_call = warm_timer.elapsed / repeats
    stats = get_plan_cache().stats()

    assert stats.misses == 1 and stats.hits >= repeats
    assert warm_per_call < cold_timer.elapsed
    RECORD["one_shot"] = {
        "cold_s": round(cold_timer.elapsed, 6),
        "warm_s": round(warm_per_call, 6),
        "saving": round(cold_timer.elapsed / warm_per_call, 3),
    }

    from repro.analysis import format_table

    report(
        "runtime_compile_saving",
        format_table(
            ["metric", "value"],
            [
                ["cold one-shot call s", f"{cold_timer.elapsed:.5f}"],
                ["warm one-shot call s", f"{warm_per_call:.5f}"],
                ["saving per call", f"{cold_timer.elapsed / warm_per_call:.1f}x"],
            ],
            title="One-shot insum() — process-wide plan cache cold vs warm",
        ),
    )


def test_zz_write_bench_json():
    """Flush every recorded metric to BENCH_runtime.json (runs last in file order)."""
    required = {"server", "stacked", "one_shot"}
    assert required.issubset(RECORD), f"missing benchmark sections: {required - set(RECORD)}"
    write_bench_json(RECORD, profile="full")
    assert RESULTS_JSON.exists()


# ---------------------------------------------------------------------------
# CI smoke entry point
# ---------------------------------------------------------------------------
def main(argv: list[str]) -> int:
    """Reduced-size smoke run: measure, print, and write the JSON record.

    ``--smoke`` shrinks the workload; ``--out PATH`` redirects the record
    (the CI job writes to a scratch path and compares it against the
    committed ``benchmarks/results/BENCH_runtime.json``); ``--seed N``
    makes the measured workload reproducible; ``--cluster`` adds the
    multi-process vs threaded open-loop comparison (the nightly full
    benchmark runs with it); ``--trace FILE`` replays a committed
    workload trace and records its SLO attainment for the gate's
    absolute-floor check.
    """
    smoke = "--smoke" in argv
    with_cluster = "--cluster" in argv
    out_path = RESULTS_JSON
    if "--out" in argv:
        out_path = Path(argv[argv.index("--out") + 1])
    seed = DEFAULT_SEED
    if "--seed" in argv:
        seed = int(argv[argv.index("--seed") + 1])
    trace_path: Path | None = None
    if "--trace" in argv:
        trace_path = Path(argv[argv.index("--trace") + 1])
    num_requests = 96 if smoke else NUM_REQUESTS

    record: dict = {}
    record["server"] = measure_server_throughput(build_workload(num_requests, seed=seed))
    record["ops_scrape"] = scrape_ops_endpoint(build_workload(num_requests, seed=seed))
    if with_cluster:
        if (os.cpu_count() or 1) < 2:
            print("skipping --cluster: needs >= 2 cores for a meaningful comparison")
        else:
            record["cluster"] = measure_cluster_throughput(
                build_workload(num_requests, seed=seed), rounds=2 if smoke else 3
            )

    rng = rng_stream(seed, "bench/stacked")
    mask = rng.random((48, 64)) < 0.08
    stack = np.where(mask[None], rng.standard_normal((8, 48, 64)), 0.0)
    dense = rng.standard_normal((64, 8))
    widened, per_item_loop = stacked_paths(stack, dense)
    widened(), per_item_loop()
    with Timer() as batched_timer:
        for _ in range(5):
            widened()
    with Timer() as loop_timer:
        for _ in range(5):
            per_item_loop()
    record["stacked"] = {
        "stack_size": 8,
        "batched_s_per_iter": round(batched_timer.elapsed / 5, 6),
        "loop_s_per_iter": round(loop_timer.elapsed / 5, 6),
        "speedup": round(loop_timer.elapsed / batched_timer.elapsed, 3),
    }

    coo_dense = np.where(rng.random((48, 64)) < 0.1, rng.standard_normal((48, 64)), 0.0)
    coo = COO.from_dense(coo_dense)
    tensors = dict(
        C=np.zeros((48, 8)),
        AV=coo.values,
        AM=coo.coords[0],
        AK=coo.coords[1],
        B=rng.standard_normal((64, 8)),
    )
    expression = "C[AM[p],n] += AV[p] * B[AK[p],n]"
    # Best-of-3 on both sides: a single sub-ms cold sample is far too
    # noisy to gate CI on.
    cold_s = float("inf")
    for _ in range(3):
        clear_plan_cache()
        with Timer() as cold_timer:
            insum(expression, **tensors)
        cold_s = min(cold_s, cold_timer.elapsed)
    warm_s = float("inf")
    for _ in range(3):
        with Timer() as warm_timer:
            for _ in range(10):
                insum(expression, **tensors)
        warm_s = min(warm_s, warm_timer.elapsed / 10)
    record["one_shot"] = {
        "cold_s": round(cold_s, 6),
        "warm_s": round(warm_s, 6),
        "saving": round(cold_s / warm_s, 3),
    }

    if trace_path is not None:
        record["replay"] = measure_trace_replay(trace_path)
        record["gateway"] = measure_gateway_replay(trace_path)

    write_bench_json(record, path=out_path, profile="smoke" if smoke else "full")
    print(json.dumps(record, indent=2, sort_keys=True))
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
