"""Opt-in self-check of the layer-budget benchmark (not part of tier-1).

    python -m pytest -q benchmarks/layers/test_selfcheck.py

Checks the harness, not the program: every metric ``BENCHMARK.json`` declares
is emitted and nothing else is, the exact counts repeat for one seed and the
inputs change with the seed, a wrong response is counted as failed, a run
leaves no process behind, and ``--compare`` reaches the verdicts it documents.  Takes about two minutes:
it runs the whole suite three times in ``--quick`` mode.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

import pytest  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
EXACT = ("gateway.wire_bytes_per_req", "formats.bytes_per_nnz", "core.inductor.modeled_gpu_ms")


def quick_run(tmp_path_factory, seed: int, tag: str) -> dict:
    out = tmp_path_factory.mktemp("layers") / f"{tag}.json"
    command = [sys.executable, str(HERE / "run.py"), "--quick", "--trace", "--seed", str(seed)]
    subprocess.run(command + ["--out", str(out)], cwd=ROOT, check=True, timeout=600)
    return json.loads(out.read_text())


@pytest.fixture(scope="module")
def runs(tmp_path_factory) -> dict[str, dict]:
    return {
        "first": quick_run(tmp_path_factory, 11, "first"),
        "again": quick_run(tmp_path_factory, 11, "again"),
        "other": quick_run(tmp_path_factory, 12, "other"),
    }


def test_every_declared_metric_is_emitted_and_nothing_else(runs):
    end_to_end = {m["name"] for m in DECLARED["end_to_end"]}
    per_layer = {m["name"] for m in DECLARED["per_layer"]}
    try:
        import scipy  # noqa: F401
    except ImportError:
        per_layer -= {"ref.scipy_us", "ref.vs_scipy_ratio"}
    first = runs["first"]
    assert set(first["workloads"]) == {w["name"] for w in DECLARED["workloads"]}
    for name, record in first["workloads"].items():
        assert set(record["metrics"]) == end_to_end, name
        assert record["failed"] == 0 and record["attempted"] > 0, name
        assert all(entry["value"] > 0 for entry in record["metrics"].values()), name
    assert set(first["layers"]["metrics"]) == per_layer
    assert first["layers"]["failed"] == 0
    for name in end_to_end | per_layer:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name


def test_exact_counts_repeat_for_one_seed_and_inputs_follow_the_seed(runs):
    first, again, other = runs["first"], runs["again"], runs["other"]
    for metric in EXACT:
        assert first["layers"]["metrics"][metric] == again["layers"]["metrics"][metric], metric
    assert first["layers"]["attempted"] == again["layers"]["attempted"]
    for name, record in first["workloads"].items():
        assert record["attempted"] == again["workloads"][name]["attempted"], name
        assert record["inputs_digest"] == again["workloads"][name]["inputs_digest"], name
        assert record["inputs_digest"] != other["workloads"][name]["inputs_digest"], name


def test_traced_run_writes_per_request_spans(runs):
    spans = json.loads(Path(runs["first"]["layers"]["detail"]["spans_file"]).read_text())
    assert spans and set(spans[0]) == {"name", "start", "end", "parent", "request_id"}
    names = {span["name"] for span in spans}
    assert {"suite.request", "suite.submit", "execute", "gateway.wait", "ring.transit"} <= names
    for stack, summary in runs["first"]["layers"]["detail"]["self_time"].items():
        total = sum(summary["layer_mean_us"].values())
        assert abs(total - summary["latency_mean_us"]) <= 0.1 * summary["latency_mean_us"], stack


def test_a_corrupted_response_is_counted_as_failed():
    """One request in eight is answered for a perturbed operand: the reply
    arrives, on time, and is wrong — it must land in ``failed``."""
    import workloads
    from measure import Tally
    from repro import Session
    from serving import closed_loop

    mix = workloads.serving_mix(5)
    with Session("inline") as session:
        sent = 0

        def corrupting_submit(expression, **operands):
            nonlocal sent
            sent += 1
            if sent == 3:
                operands = {**operands, "B": operands["B"] + 1.0}
            return session.submit(expression, **operands)

        tally = Tally()
        latencies, _ = closed_loop(corrupting_submit, mix, 2, len(mix), tally)
    assert (tally.attempted, tally.failed) == (len(mix), 1)
    assert len(latencies) == len(mix) - 1 and tally.failed_share == 1 / len(mix)


def test_a_cluster_run_leaves_no_process_behind():
    """The run gets a session of its own; the moment it exits, nothing of that
    session is left — no worker, no ``multiprocessing`` resource tracker."""
    command = [sys.executable, str(HERE / "run.py"), "--quick", "--seed", "11"]
    run = subprocess.Popen(
        command + ["--workload", "serve_gateway_cluster"],
        cwd=ROOT, start_new_session=True, stdout=subprocess.DEVNULL,
    )
    assert run.wait(timeout=300) == 0
    left = []
    for entry in os.listdir("/proc"):
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue  # not a process, or one that ended meanwhile
        if int(stat.rsplit(")", 1)[1].split()[3]) == run.pid:
            left.append(Path("/proc", entry, "cmdline").read_text().replace("\0", " "))
    assert left == []


def test_compare_verdicts():
    import compare

    def one(value, spread=0.01):
        return {"value": value, "spread": spread}

    assert compare.verdict(one(10.0), one(10.5), "lower", 0.10)[1] == "same"
    assert compare.verdict(one(10.0), one(11.5), "lower", 0.10)[1] == "worse"
    assert compare.verdict(one(10.0), one(8.5), "lower", 0.10)[1] == "better"
    assert compare.verdict(one(100.0), one(85.0), "higher", 0.10)[1] == "worse"
    assert compare.verdict(one(10.0), one(11.5, spread=0.2), "lower", 0.10)[1] == "unresolved"
