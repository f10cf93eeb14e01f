"""Layer-budget benchmark: one command from kernel to gateway.

    python benchmarks/layers/run.py --seed S [--workload W] [--trace] [--out F]
    python benchmarks/layers/run.py --quick [--trace]
    python benchmarks/layers/run.py --compare A.json B.json

With ``--workload`` the workload runs in this process and the last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}`` — every end-to-end metric, or with ``--trace 1`` every per-layer
metric.  Without it, each workload (and, with ``--trace``, the traced run)
runs in a fresh subprocess of this same command and the results are merged
into one JSON (``--out``).  See ``README.md`` beside this file.
"""

from __future__ import annotations

import os

# One BLAS thread, fixed before numpy loads: on a 2-core host an unpinned
# OpenBLAS reads 7972 us for a 155 us matmul.  Subprocesses inherit it.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT_DIR = HERE / "out"
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in DECLARED["workloads"]]
UNITS = {m["name"]: m["unit"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]}


def host_block(seed: int) -> dict:
    import numpy as np

    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # noqa: BLE001 — numpy's config layout varies by version
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "scipy": scipy_version,
        "seed": seed,
    }


def build_workload(name: str, seed: int):
    import library
    import serving
    import workloads

    if name == "kernel_spmm":
        return library.WarmKernels(seed, workloads.kernel_spmm_cases)
    if name == "kernel_indirect":
        return library.WarmKernels(seed, workloads.kernel_indirect_cases)
    if name == "cold_compile":
        return library.ColdCompile(seed)
    if name == "pattern_churn":
        return library.PatternChurn(seed)
    if name == "serve_threaded_mixed":
        return serving.Serving(seed, serving.open_threaded, outstanding=8, per_round=800)
    if name == "serve_gateway_cluster":
        return serving.Serving(seed, serving.open_gateway, outstanding=4, per_round=400)
    raise SystemExit(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


def run_untraced(name: str, seed: int, budget) -> dict:
    """Set up ``setup_cycles`` times, measure, tear down; tracing off."""
    from measure import Tally, clear_caches, host_scale, peak_rss_mb, spread
    from repro.obs import trace as obs_trace

    obs_trace.set_enabled(False)
    tally = Tally()
    workload = build_workload(name, seed)
    setup_s: list[float] = []
    # At least ``setup_cycles`` full set-ups; a cheap one (a thread pool
    # starts in 20 ms) is repeated up to 25 times within 1.5 s of a 10 s run,
    # because the median of five 20 ms readings moves by more than its bound.
    most, within_s = budget.count(25), 0.15 * budget.seconds
    try:
        while len(setup_s) < budget.setup_cycles or (
            budget.rounds is None and len(setup_s) < most and sum(setup_s) < within_s
        ):
            if setup_s:
                workload.teardown()
            clear_caches()
            start = time.perf_counter()
            workload.setup(tally)
            elapsed = time.perf_counter() - start
            if workload.yardstick is not None:  # a library workload: at the reference host speed
                elapsed *= host_scale([workload.yardstick() for _ in range(5)])
            setup_s.append(elapsed)
        measured = workload.measure(budget, tally)
    finally:
        workload.teardown()
    metrics = {
        "setup_s": {"value": statistics.median(setup_s), "spread": spread(setup_s)},
        "peak_rss_mb": {"value": peak_rss_mb(), "spread": 0.0},
    }
    for metric in ("op_ms_p50", "ops_per_s"):
        value, between_rounds = measured.pop(metric)
        metrics[metric] = {"value": value, "spread": between_rounds}
    return {
        "inputs_digest": workload.digest,
        "tally": tally,
        "metrics": metrics,
        "detail": measured,
    }


def run_traced(seed: int, budget) -> dict:
    import layers

    done = layers.run(seed, budget, OUT_DIR / f"spans-seed{seed}.json")
    return {
        "tally": done["tally"],
        "metrics": {name: {"value": value} for name, value in done["metrics"].items()},
        "detail": done["detail"],
    }


def finite(value: float) -> float:
    return float(value) if math.isfinite(value) else -1.0


def print_report(name: str, traced: bool, result: dict) -> None:
    detail = result["detail"]
    print(f"== {name} ({'traced: per-layer' if traced else 'untraced: end-to-end'}) ==")
    for row in detail.get("cases", []):
        extras = "".join(
            f"  {key[:-3]} {row[key]:9.3f} ms" for key in ("dense_ms", "scipy_ms") if key in row
        )
        print(
            f"  {row['case']:<34s} p50 {row['p50_ms']:9.3f} ms  p95 {row['p95_ms']:9.3f} ms"
            f"  n={row['samples']}{extras}"
        )
    for row in detail.get("kernels", []):
        extras = "".join(
            f"  {key[:-3]} {row[key]:10.1f} us"
            for key in ("call_us", "dense_us", "scipy_us")
            if key in row
        )
        print(f"  {row['case']:<34s} run {row['run_us']:10.1f} us{extras}")
    if "ladder" in detail:
        print("  reference request 256x192 @10%, N=64, GroupCOO, one outstanding:")
        for row in detail["ladder"]:
            print(f"    {row['rung']:<10s} {row['us']:9.1f} us  (spread {row['spread']:.3f})")
    for stack, summary in detail.get("self_time", {}).items():
        print(
            f"  {stack}: {summary['requests']} traced requests, mean client latency "
            f"{summary['latency_mean_us']:.0f} us, program spans own {summary['coverage']:.1%}"
        )
        for layer, value in summary["layer_mean_us"].items():
            print(f"    mean self time {layer:<8s} {value:9.1f} us")
    for line in detail.get("session", []):
        print(f"  {line}")
    if "host_scale" in detail:
        print(
            f"  timings at the reference host speed: scaled by {detail['host_scale']:.3f}, the "
            f"median over rounds (spread {detail['host_scale_spread']:.3f}) of the yardstick's "
            "reference over its reading"
        )
    if "rounds" in detail:
        tail = "".join(
            f", {key[:-3]} {detail[key]:.3f} ms" for key in ("p95_ms", "p99_ms") if key in detail
        )
        print(f"  rounds {detail['rounds']}, samples {detail['samples']}{tail}")
    for metric, entry in result["metrics"].items():
        note = f"  (spread between rounds {entry['spread']:.3f})" if "spread" in entry else ""
        print(f"{metric} = {entry['value']:.6g} {UNITS[metric]}{note}")
    tally = result["tally"]
    print(f"attempted {tally.attempted}, failed {tally.failed}")
    for note in tally.notes:
        print(f"  FAILED {note}")


def run_one(args) -> int:
    """``--workload`` mode: run here, print, end with the contract's line.

    Whatever way the run ends, no process it started outlives it."""
    from measure import stop_children

    try:
        return measure_one(args)
    finally:
        stopped = stop_children()
        if stopped:
            print(f"stopped leftover processes {stopped}", file=sys.stderr)


def measure_one(args) -> int:
    from measure import Budget

    if args.quick:
        budget = Budget(seconds=args.seconds, rounds=2, setup_cycles=2, scale=0.2)
    else:
        budget = Budget(seconds=args.seconds, scale=args.seconds / 10.0)
    ignored = count_unraisable()
    if args.trace:
        result = run_traced(args.seed, budget)
    else:
        result = run_untraced(args.workload, args.seed, budget)
    declared = {m["name"] for m in DECLARED["per_layer" if args.trace else "end_to_end"]}
    undeclared = sorted(set(result["metrics"]) - declared)
    if undeclared:
        raise SystemExit(f"emitted metrics missing from BENCHMARK.json: {undeclared}")
    print_report(args.workload, bool(args.trace), result)
    if ignored:
        print(f"note: {len(ignored)} 'Exception ignored' events (see README, known issues)")
    tally = result.pop("tally")
    record = {
        "workload": args.workload,
        "trace": int(args.trace),
        "seed": args.seed,
        "seconds": args.seconds,
        "host": host_block(args.seed),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.notes,
        **result,
    }
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1, default=float))
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {
                    name: {"value": finite(entry["value"]), "unit": UNITS[name]}
                    for name, entry in result["metrics"].items()
                },
            }
        )
    )
    return 0


def count_unraisable() -> list:
    """Collect 'Exception ignored in ...' events instead of printing each."""
    seen: list = []
    sys.unraisablehook = seen.append
    return seen


def run_suite(args) -> int:
    """Every workload in a fresh subprocess, then (``--trace``) the traced run."""
    jobs = [(name, 0) for name in WORKLOADS]
    if args.trace:
        jobs.append((WORKLOADS[0], 1))  # the traced run is the same for every workload
    merged = {"host": host_block(args.seed), "seed": args.seed, "workloads": {}, "layers": None}
    status = 0
    with tempfile.TemporaryDirectory(dir=HERE) as scratch:
        for name, trace in jobs:
            out = Path(scratch) / f"{name}-{trace}.json"
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace), "--out", str(out),
            ]
            if args.quick:
                command.append("--quick")
            code = subprocess.run(command, cwd=ROOT).returncode
            if code != 0 or not out.exists():
                print(f"{name} (trace {trace}) exited with {code}", file=sys.stderr)
                status = 1
                continue
            record = json.loads(out.read_text())
            if record["failed"]:
                status = 1
            if trace:
                merged["layers"] = record
            else:
                merged["workloads"][name] = record
    if args.out:
        Path(args.out).write_text(json.dumps(merged, indent=1))
        print(f"wrote {args.out}")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=float(DECLARED["run_seconds"]),
                        help="timed budget of one workload run")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1),
                        help="run the traced per-layer pass (with --workload: instead of the "
                        "untraced run; without: after the workloads)")
    parser.add_argument("--out", help="write the full result JSON here")
    parser.add_argument("--quick", action="store_true",
                        help="2 rounds, short set-up: under 20 s for all six workloads")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        import compare

        return compare.main(*args.compare, DECLARED)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # SIGTERM unwinds this process like an exception, so stacks close and
    # children are reaped; a forked cluster worker inherits the handler and
    # must still die at once, as it does under the default action.
    owner, code = os.getpid(), 128 + signal.SIGTERM
    signal.signal(
        signal.SIGTERM, lambda *_: sys.exit(code) if os.getpid() == owner else os._exit(code)
    )
    if args.workload:
        return run_one(args)
    return run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
