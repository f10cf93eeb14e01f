"""The ops endpoint and registry truth against live serving tiers."""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import numpy as np

from repro.formats import COO
from repro.obs.metrics import get_registry, validate_prometheus_text
from repro.obs.ops import PROMETHEUS_CONTENT_TYPE, OpsServer
from repro.serve import ServeConfig, Session


def fetch(url: str):
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.status, response.headers.get("Content-Type"), response.read()


def build_workload(rng, count=12):
    dense = np.where(rng.random((24, 32)) < 0.2, rng.standard_normal((24, 32)), 0.0)
    sparse = COO.from_dense(dense)
    return [
        ("C[m,n] += A[m,k] * B[k,n]", dict(A=sparse, B=rng.standard_normal((32, 8))))
        for _ in range(count)
    ]


def completed_total(backend: str) -> float:
    return get_registry().counter(
        "repro_requests_total", backend=backend, outcome="completed"
    ).value()


def test_ops_server_without_session_serves_registry_only():
    with OpsServer() as ops:
        status, content_type, body = fetch(ops.url("/metrics"))
        assert status == 200
        assert content_type == PROMETHEUS_CONTENT_TYPE
        assert validate_prometheus_text(body.decode()) == []
        status, _, body = fetch(ops.url("/healthz"))
        assert status == 200
        assert json.loads(body)["scope"] == "process"
        for probe in ("/nope", "/scan0", "/scan1", "/scan2?q=1"):
            try:
                fetch(ops.url(probe))
            except urllib.error.HTTPError as error:
                assert error.code == 404
            else:
                raise AssertionError("expected a 404")
        # A client choosing paths must not mint a series per path: the
        # registry keeps every child, so unserved paths share one label.
        _, _, body = fetch(ops.url("/metrics"))
        not_found = [
            line
            for line in body.decode().splitlines()
            if line.startswith("repro_ops_requests_total{") and 'code="404"' in line
        ]
        assert len(not_found) == 1, not_found
        assert 'path="other"' in not_found[0]


def test_threaded_session_ops_endpoint_serves_all_three_paths(rng):
    with Session(backend="threaded", config=ServeConfig(workers=2)) as session:
        ops = session.serve_ops()
        assert session.serve_ops() is ops  # idempotent
        for future in session.submit_many(build_workload(rng)):
            future.result(timeout=60)
        status, content_type, body = fetch(ops.url("/metrics"))
        assert status == 200 and content_type == PROMETHEUS_CONTENT_TYPE
        text = body.decode()
        assert validate_prometheus_text(text) == []
        assert 'repro_serve_completed{backend="threaded"} 12' in text
        status, _, body = fetch(ops.url("/healthz"))
        health = json.loads(body)
        assert status == 200 and health["status"] == "ok"
        assert health["backend"] == "threaded"
        assert all(worker["alive"] for worker in health["workers"])
        status, _, body = fetch(ops.url("/statsz"))
        stats = json.loads(body)
        assert status == 200
        assert stats["completed"] == 12 and stats["submitted"] == 12
        assert stats["p99_latency_ms"] >= stats["p50_latency_ms"]


def test_cluster_scrape_exposes_required_series(rng):
    """Acceptance: a cluster session under load serves valid Prometheus text
    including the plan-cache hit rate, coalesce rate, admission rejections,
    and per-backend latency histograms."""
    config = ServeConfig(workers=2, worker_threads=1)
    with Session(backend="cluster", config=config) as session:
        ops = session.serve_ops()
        for future in session.submit_many(build_workload(rng, count=16)):
            future.result(timeout=120)
        _, _, body = fetch(ops.url("/metrics"))
    text = body.decode()
    assert validate_prometheus_text(text) == []
    assert 'repro_serve_plan_cache_hit_rate{backend="cluster"}' in text
    assert 'repro_serve_coalesce_rate{backend="cluster"}' in text
    assert "# TYPE repro_admission_rejected_total counter" in text
    assert 'repro_request_latency_ms_bucket{backend="cluster",le="+Inf"}' in text
    assert 'repro_serve_completed{backend="cluster"} 16' in text


def test_registry_counts_exactly_under_threads_and_live_cluster(rng):
    """Hammer the registry from N threads while a live cluster serves, and
    assert both the hammered counter and the serving counters are exact."""
    registry = get_registry()
    hammered = registry.counter("repro_test_obs_hammer_total", "test")
    base_hammer = hammered.value()
    base_completed = completed_total("cluster")
    workload = build_workload(rng, count=20)

    def hammer():
        for _ in range(2000):
            hammered.inc()

    threads = [threading.Thread(target=hammer) for _ in range(6)]
    snapshots: list[float] = []
    config = ServeConfig(workers=2, worker_threads=1)
    with Session(backend="cluster", config=config) as session:
        for thread in threads:
            thread.start()
        futures = session.submit_many(workload)
        for future in futures:
            future.result(timeout=120)
            snapshots.append(completed_total("cluster"))
        for thread in threads:
            thread.join()
    assert hammered.value() - base_hammer == 6 * 2000
    assert completed_total("cluster") - base_completed == len(workload)
    assert snapshots == sorted(snapshots), "completed counter went backwards"
    assert completed_total("cluster") == snapshots[-1]
