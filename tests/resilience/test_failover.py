"""Unit tests for fallback-config derivation."""

from __future__ import annotations

import pytest

from repro.resilience.failover import FALLBACK_BACKENDS, fallback_config
from repro.serve import ServeConfig


def cluster_config(**overrides) -> ServeConfig:
    fields = dict(
        workers=2,
        worker_threads=1,
        coalesce=False,
        admission="reject",
        max_inflight=64,
        ring_capacity=1 << 20,
        restart_budget=1,
        failover="threaded",
        failover_floor=2,
        retry_attempts=3,
        compile_backend="inductor",
        auto_format=True,
    )
    fields.update(overrides)
    return ServeConfig(**fields)


def test_threaded_fallback_keeps_worker_and_coalesce_settings():
    config = cluster_config()
    derived = fallback_config(config, "threaded")
    assert derived.workers == 2
    assert derived.coalesce is False
    # Cluster-gated fields are stripped...
    for name in (
        "worker_threads", "admission", "max_inflight", "ring_capacity",
        "restart_budget", "retry_attempts", "failover", "failover_floor",
    ):
        assert getattr(derived, name) is None, name
    # ...and the result validates for the fallback tier.
    derived.validate("threaded")


def test_inline_fallback_also_drops_pool_knobs():
    derived = fallback_config(cluster_config(failover="inline"), "inline")
    assert derived.workers is None
    assert derived.coalesce is None
    derived.validate("inline")


def test_common_compiler_fields_survive_derivation():
    derived = fallback_config(cluster_config(), "threaded")
    assert derived.compile_backend == "inductor"
    assert derived.auto_format is True


def test_fallback_never_recurses():
    derived = fallback_config(cluster_config(), "threaded")
    assert derived.failover is None
    assert derived.failover_floor is None


def test_unknown_fallback_backend_rejected():
    assert FALLBACK_BACKENDS == ("inline", "threaded")
    with pytest.raises(ValueError, match="failover backend"):
        fallback_config(cluster_config(), "cluster")
