"""Trace replay through the live HTTP gateway.

The PR's acceptance path: ``benchmarks/traces/mixed_smoke.jsonl``
replayed through a gateway on the cluster backend must hold its SLO
with zero digest mismatches, while ``/metrics`` exposes valid
``repro_gateway_*`` series carrying tenant labels.
"""

from __future__ import annotations

import threading
import time
import urllib.request
from pathlib import Path

import pytest

from repro.gateway import GatewayClient, GatewayConfig
from repro.gateway.wire import API_KEY_HEADER
from repro.obs.metrics import get_registry, validate_prometheus_text
from repro.replay import read_trace, replay, synthesize
from repro.serve import ServeConfig, Session

MIXED_SMOKE = Path(__file__).resolve().parents[2] / "benchmarks" / "traces" / "mixed_smoke.jsonl"


def tenant_keyring(trace):
    tenant_keys = {tenant: f"test-key-{tenant}" for tenant in trace.tenants()}
    api_keys = {key: tenant for tenant, key in tenant_keys.items()}
    return tenant_keys, api_keys


class TestSynthesizedReplay:
    def test_multi_tenant_trace_verifies_through_gateway(self, seed):
        trace = synthesize("gateway-replay", seed=seed, num_records=24, rate_rps=400.0)
        tenant_keys, api_keys = tenant_keyring(trace)
        with Session("inline") as session:
            server = session.serve_gateway(config=GatewayConfig(api_keys=api_keys))
            with GatewayClient(server.url(""), tenant_keys=tenant_keys) as client:
                report = replay(trace, client, verify=True, time_scale=0.0)
        assert report.submitted == report.completed == len(trace)
        assert report.failed == report.cancelled == 0
        assert report.digest_checked == len(trace)
        assert report.digest_mismatches == 0
        assert report.invariant_violations() == []
        # The tenant column survives the HTTP hop into the breakdown.
        assert set(report.per_tenant) == set(trace.tenants())
        total = sum(entry["submitted"] for entry in report.per_tenant.values())
        assert total == report.submitted

    def test_per_tenant_counters_carry_the_gateway_label(self, seed):
        trace = synthesize("gateway-labels", seed=seed, num_records=12, rate_rps=400.0)
        tenant_keys, api_keys = tenant_keyring(trace)
        registry = get_registry()
        counters = {
            tenant: registry.counter(
                "repro_gateway_requests_total", tenant=tenant, outcome="ok"
            )
            for tenant in trace.tenants()
        }
        before = {tenant: counter.value() for tenant, counter in counters.items()}
        with Session("inline") as session:
            server = session.serve_gateway(config=GatewayConfig(api_keys=api_keys))
            with GatewayClient(server.url(""), tenant_keys=tenant_keys) as client:
                replay(trace, client, verify=True, time_scale=0.0)
        per_tenant = {
            record.tenant: sum(1 for r in trace.records if r.tenant == record.tenant)
            for record in trace.records
        }
        for tenant, expected in per_tenant.items():
            assert counters[tenant].value() == before[tenant] + expected


@pytest.mark.skipif(not MIXED_SMOKE.exists(), reason="smoke trace not checked in")
class TestMixedSmokeAcceptance:
    def test_cluster_gateway_holds_slo_with_metrics_scrape(self):
        trace = read_trace(MIXED_SMOKE)
        trace.refresh_digests()
        tenant_keys, api_keys = tenant_keyring(trace)
        scraped: list[str] = []

        with Session("cluster", config=ServeConfig(workers=2)) as session:
            server = session.serve_gateway(config=GatewayConfig(api_keys=api_keys))
            metrics = urllib.request.Request(
                server.url("/metrics"), headers={API_KEY_HEADER: next(iter(api_keys))}
            )

            def scrape_mid_replay():
                time.sleep(0.2)
                try:
                    with urllib.request.urlopen(metrics, timeout=10) as reply:
                        scraped.append(reply.read().decode("utf-8"))
                except OSError:
                    pass

            scraper = threading.Thread(target=scrape_mid_replay, daemon=True)
            scraper.start()
            with GatewayClient(server.url(""), tenant_keys=tenant_keys) as client:
                report = replay(trace, client, verify=True, time_scale=1.0)
            scraper.join(timeout=15)
            if not scraped:  # replay finished before the scraper woke
                with urllib.request.urlopen(metrics, timeout=10) as reply:
                    scraped.append(reply.read().decode("utf-8"))

        assert report.digest_mismatches == 0
        assert report.digest_checked == len(trace)
        assert report.attainment >= 0.95
        assert report.invariant_violations() == []
        text = scraped[0]
        assert validate_prometheus_text(text) == []
        gateway_lines = [
            line
            for line in text.splitlines()
            if line.startswith("repro_gateway_requests_total") and "tenant=" in line
        ]
        assert gateway_lines, "no tenant-labelled repro_gateway_* series in the scrape"
