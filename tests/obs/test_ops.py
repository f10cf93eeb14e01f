"""The gateway's ops routes and registry truth against live serving tiers."""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import numpy as np

from repro.formats import COO
from repro.gateway import GatewayClient, GatewayConfig
from repro.gateway.wire import API_KEY_HEADER
from repro.obs.metrics import PROMETHEUS_CONTENT_TYPE, get_registry, validate_prometheus_text
from repro.serve import ServeConfig, Session

SPMM_EXPR = "C[m,n] += A[m,k] * B[k,n]"


def fetch(url: str, api_key: str | None = None):
    headers = {API_KEY_HEADER: api_key} if api_key is not None else {}
    request = urllib.request.Request(url, headers=headers)
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.status, response.headers.get("Content-Type"), response.read()


def fetch_status(url: str, api_key: str | None = None) -> int:
    try:
        return fetch(url, api_key)[0]
    except urllib.error.HTTPError as error:
        return error.code


def build_workload(rng, count=12):
    dense = np.where(rng.random((24, 32)) < 0.2, rng.standard_normal((24, 32)), 0.0)
    sparse = COO.from_dense(dense)
    return [(SPMM_EXPR, dict(A=sparse, B=rng.standard_normal((32, 8)))) for _ in range(count)]


def completed_total(backend: str) -> float:
    return get_registry().counter(
        "repro_requests_total", backend=backend, outcome="completed"
    ).value()


def series(text: str) -> set[str]:
    """The ``repro_`` series of one scrape: each sample's name and labels."""
    return {
        line.rsplit(" ", 1)[0] for line in text.splitlines() if line.startswith("repro_")
    }


def test_probed_paths_mint_no_series():
    with Session("inline") as session:
        gateway = session.serve_gateway()
        before = series(fetch(gateway.url("/metrics"))[2].decode())
        for probe in ("/nope", "/scan0", "/scan1", "/scan2?q=1"):
            assert fetch_status(gateway.url(probe)) == 404
        after = series(fetch(gateway.url("/metrics"))[2].decode())
    # A client choosing paths must not mint a series per path: the
    # registry keeps every child it is asked for.
    assert after == before


def test_threaded_session_gateway_serves_the_ops_routes(rng):
    with Session(backend="threaded", config=ServeConfig(workers=2)) as session:
        gateway = session.serve_gateway()
        for future in session.submit_many(build_workload(rng)):
            future.result(timeout=60)
        status, content_type, body = fetch(gateway.url("/metrics"))
        assert status == 200 and content_type == PROMETHEUS_CONTENT_TYPE
        text = body.decode()
        assert validate_prometheus_text(text) == []
        assert 'repro_serve_completed{backend="threaded"} 12' in text
        status, _, body = fetch(gateway.url("/v1/healthz"))
        health = json.loads(body)
        assert status == 200 and health["status"] == "ok"
        assert health["backend"] == "threaded"
        assert all(worker["alive"] for worker in health["workers"])
        status, _, body = fetch(gateway.url("/v1/statsz"))
        stats = json.loads(body)
        assert status == 200
        assert stats["completed"] == 12 and stats["submitted"] == 12
        assert stats["p99_latency_ms"] >= stats["p50_latency_ms"]


def test_cluster_scrape_exposes_required_series(rng):
    """Acceptance: a cluster session under load serves valid Prometheus text
    including the plan-cache hit rate, admission rejections and per-backend
    latency histograms, and no coalescing series (every request is its own
    call)."""
    config = ServeConfig(workers=2, worker_threads=1)
    with Session(backend="cluster", config=config) as session:
        gateway = session.serve_gateway()
        for future in session.submit_many(build_workload(rng, count=16)):
            future.result(timeout=120)
        _, _, body = fetch(gateway.url("/metrics"))
        status, _, stats = fetch(gateway.url("/v1/statsz"))
        assert status == 200 and json.loads(stats)["completed"] == 16
        assert fetch_status(gateway.url("/v1/healthz")) == 200
    text = body.decode()
    assert validate_prometheus_text(text) == []
    assert 'repro_serve_plan_cache_hit_rate{backend="cluster"}' in text
    assert "coalesce" not in text
    assert "# TYPE repro_admission_rejected_total counter" in text
    assert 'repro_request_latency_ms_bucket{backend="cluster",le="+Inf"}' in text
    assert 'repro_serve_completed{backend="cluster"} 16' in text


def test_keyring_guards_metrics_and_statsz_but_not_healthz():
    config = GatewayConfig(api_keys={"key-acme": "acme"})
    with Session("inline") as session:
        gateway = session.serve_gateway(config=config)
        counted = get_registry().counter(
            "repro_gateway_requests_total", tenant="acme", outcome="ok"
        )
        before = counted.value()
        for path in ("/metrics", "/v1/statsz"):
            assert fetch_status(gateway.url(path)) == 401
            assert fetch_status(gateway.url(path), api_key="key-wrong") == 403
            assert fetch_status(gateway.url(path), api_key="key-acme") == 200
        assert fetch_status(gateway.url("/v1/healthz")) == 200
        assert counted.value() == before  # ops reads are not gateway requests


def test_a_blocked_scrape_does_not_stall_submit(rng, monkeypatch):
    entered, release = threading.Event(), threading.Event()
    with Session("inline") as session:
        publish = session.publish_metrics

        def blocked_publish():
            entered.set()
            release.wait(timeout=60)
            publish()

        monkeypatch.setattr(session, "publish_metrics", blocked_publish)
        gateway = session.serve_gateway()
        scraped: list[int] = []
        scraper = threading.Thread(
            target=lambda: scraped.append(fetch_status(gateway.url("/metrics")))
        )
        scraper.start()
        try:
            assert entered.wait(timeout=30)
            ((expression, operands),) = build_workload(rng, count=1)
            with GatewayClient(gateway.url("")) as client:
                output = client.submit(expression, **operands).result(timeout=10)
            assert output.shape == (24, 8)
            assert scraper.is_alive()  # the scrape is still parked
        finally:
            release.set()
            scraper.join(timeout=30)
    assert scraped == [200]


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
