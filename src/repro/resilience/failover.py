"""Failover: route around a degraded cluster through a warm fallback.

``Session(backend="cluster", failover="threaded")`` (or the equivalent
:class:`~repro.serve.ServeConfig` fields) keeps a second, warm backend
alive beside the primary.  New submits divert to the fallback when the
primary can no longer serve them:

* the cluster's healthy-worker count drops below ``failover_floor``
  (workers dead with their restart budgets exhausted), or
* the primary's control plane failed outright
  (:class:`~repro.errors.ControlThreadError`).

Diverting is safe because every backend computes bitwise-identical
results for the same request (PR 5's parity guarantee): the caller
cannot observe *which* tier served a future except through latency.
Already-submitted requests stay with the primary — failover is about
where *new* work goes, not about migrating in-flight state.

This module owns the config plumbing: deriving a valid fallback
:class:`~repro.serve.ServeConfig` from a cluster-tier one means
dropping every cluster-gated field (workers, rings, admission, restart
budgets, and the failover fields themselves — a fallback must not
recurse into another fallback).
"""

from __future__ import annotations

import dataclasses

__all__ = ["FALLBACK_BACKENDS", "fallback_config"]

FALLBACK_BACKENDS = ("inline", "threaded")
"""Backends allowed as failover targets.

Only the in-process tiers qualify: failing over from one cluster to
another multiplies the blast radius of whatever killed the first.
"""


def fallback_config(config, failover: str):
    """Derive the fallback backend's config from the primary's.

    Keeps every field whose declaration names the fallback backend and
    clears the rest — everything cluster-gated, including the failover
    fields (the fallback is a leaf, never itself failed over), and for
    ``"inline"`` the worker-pool and coalescing fields too.

    Parameters
    ----------
    config:
        The primary (cluster-tier) :class:`~repro.serve.ServeConfig`.
    failover:
        The fallback backend name; must be in :data:`FALLBACK_BACKENDS`.
    """
    if failover not in FALLBACK_BACKENDS:
        raise ValueError(
            f"failover backend must be one of {FALLBACK_BACKENDS}, got {failover!r}"
        )
    cleared = {
        config_field.name: None
        for config_field in dataclasses.fields(config)
        if failover not in config_field.metadata["backends"]
    }
    derived = dataclasses.replace(config, **cleared)
    derived.validate(failover)
    return derived
