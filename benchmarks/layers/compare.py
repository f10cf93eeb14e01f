"""``run.py --compare A.json B.json``: did B get worse than A?

One row per (end-to-end metric, workload) with both values, the ratio B/A
(base A), the bound ``BENCHMARK.json`` fixes for the metric and a verdict:

* ``unresolved`` — either run's spread between rounds is wider than the
  bound, so the pair cannot tell a regression of that size from noise;
* ``worse`` / ``better`` — B is beyond the bound in that direction;
* ``same`` — within the bound.

Exits non-zero when any row is ``worse``.  A and B are files written by
``run.py --out``: full-suite results or single-workload records.
"""

from __future__ import annotations

import json
from pathlib import Path


def records(path: str) -> dict[str, dict]:
    """``{workload: untraced record}`` from either kind of result file."""
    loaded = json.loads(Path(path).read_text())
    if "workloads" in loaded:
        return loaded["workloads"]
    return {} if loaded.get("trace") else {loaded["workload"]: loaded}


def verdict(a: dict, b: dict, better: str, bound: float) -> tuple[float, str]:
    """Ratio B/A and the verdict for one (metric, workload) pair."""
    ratio = b["value"] / a["value"] if a["value"] else float("inf")
    worsening = ratio - 1.0 if better == "lower" else 1.0 - ratio
    if max(a.get("spread", 0.0), b.get("spread", 0.0)) > bound:
        return ratio, "unresolved"
    if worsening > bound:
        return ratio, "worse"
    if worsening < -bound:
        return ratio, "better"
    return ratio, "same"


def main(path_a: str, path_b: str, declared: dict) -> int:
    runs_a, runs_b = records(path_a), records(path_b)
    print(f"A = {path_a}\nB = {path_b}\nratio = B / A (base A)")
    header = (
        f"{'workload':<22s} {'metric':<12s} {'A':>12s} {'B':>12s} {'ratio':>7s} {'bound':>6s}"
        "  verdict"
    )
    print(header)
    print("-" * len(header))
    worse = 0
    for workload in runs_a:
        if workload not in runs_b:
            print(f"{workload:<22s} missing from B")
            continue
        for metric in declared["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a, b = runs_a[workload]["metrics"][name], runs_b[workload]["metrics"][name]
            ratio, word = verdict(a, b, metric["better"], bound)
            worse += word == "worse"
            print(
                f"{workload:<22s} {name:<12s} {a['value']:12.5g} {b['value']:12.5g} "
                f"{ratio:7.3f} {bound:6.2f}  {word}"
                + (f" (spread A {a.get('spread', 0):.3f}, B {b.get('spread', 0):.3f})"
                   if word == "unresolved" else "")
            )
        failed = runs_a[workload]["failed"], runs_b[workload]["failed"]
        if any(failed):
            print(f"{workload:<22s} failed operations: A {failed[0]}, B {failed[1]}")
            worse += failed[1] > failed[0]
    return 1 if worse else 0
