#!/usr/bin/env python
"""Benchmark regression gate (the CI bench-smoke job's second step).

Compares the *ratio* metrics of a freshly measured benchmark record
against a committed baseline record — in CI, the smoke-profile baseline
``benchmarks/results/BENCH_runtime_smoke.json``.  Only ratios (the
stacked-batch speedup, the plan-cache saving factor) are compared — they
are broadly machine-portable, unlike absolute req/s — and only regressions
fail: a ratio more than ``--tolerance`` (default 25%) below the
baseline's value exits non-zero.  Improvements never fail.

Records may also carry ``attainment_keys`` — absolute floors (e.g.
``replay.slo_attainment: 0.99`` from the trace-replay section).  Unlike
ratios these are not compared against the baseline's measured value:
the current value must simply meet the floor, with no tolerance, on any
machine.  The current record's own floors apply; the baseline's floors
are also checked when the current record carries the metric.

Usage::

    PYTHONPATH=src python benchmarks/bench_runtime_throughput.py --smoke --out /tmp/bench.json
    python scripts/check_bench_regression.py \\
        --baseline benchmarks/results/BENCH_runtime_smoke.json --current /tmp/bench.json

Exit status 0 when every ratio holds; 1 with a per-metric report otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def _lookup(metrics: dict, dotted: str):
    """Resolve a dotted path (e.g. ``stacked.speedup``) into the metrics dict."""
    node = metrics
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def compare(baseline: dict, current: dict, tolerance: float) -> list[str]:
    """Failure messages for every ratio metric regressing beyond tolerance."""
    failures: list[str] = []
    ratio_keys = baseline.get("ratio_keys", [])
    if not ratio_keys:
        failures.append("baseline record has no ratio_keys — nothing to gate on")
        return failures
    for key in ratio_keys:
        base_value = _lookup(baseline.get("metrics", {}), key)
        current_value = _lookup(current.get("metrics", {}), key)
        if base_value is None:
            failures.append(f"{key}: missing from the baseline record")
            continue
        if current_value is None:
            failures.append(f"{key}: missing from the current record")
            continue
        floor = float(base_value) * (1.0 - tolerance)
        status = "ok" if float(current_value) >= floor else "REGRESSION"
        print(
            f"{key:32s} baseline {float(base_value):8.3f}  "
            f"current {float(current_value):8.3f}  floor {floor:8.3f}  {status}"
        )
        if status != "ok":
            failures.append(
                f"{key}: {current_value} is more than {tolerance:.0%} below "
                f"the baseline {base_value}"
            )

    # Absolute floors (SLO attainment): no baseline comparison, no
    # tolerance — the measured value must meet the committed floor.
    attainment_keys: dict = {}
    attainment_keys.update(baseline.get("attainment_keys", {}))
    attainment_keys.update(current.get("attainment_keys", {}))
    for key, floor in attainment_keys.items():
        current_value = _lookup(current.get("metrics", {}), key)
        if current_value is None:
            failures.append(f"{key}: missing from the current record (floor {floor})")
            continue
        status = "ok" if float(current_value) >= float(floor) else "BELOW FLOOR"
        print(
            f"{key:32s} floor    {float(floor):8.3f}  "
            f"current {float(current_value):8.3f}  {'':>15s} {status}"
        )
        if status != "ok":
            failures.append(f"{key}: {current_value} is below the absolute floor {floor}")
    return failures


def main(argv: list[str] | None = None) -> int:
    """Parse arguments, compare the two records, and report the verdict."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--baseline",
        type=Path,
        default=Path("benchmarks/results/BENCH_runtime_smoke.json"),
        help="committed benchmark record to gate against",
    )
    parser.add_argument(
        "--current", type=Path, required=True, help="freshly measured record"
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="allowed relative regression before failing (default 0.25)",
    )
    args = parser.parse_args(argv)

    baseline = json.loads(args.baseline.read_text())
    current = json.loads(args.current.read_text())
    failures = compare(baseline, current, args.tolerance)
    if failures:
        print("\nbenchmark regression gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("\nbenchmark regression gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
