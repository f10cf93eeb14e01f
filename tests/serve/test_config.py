"""ServeConfig: per-backend validation and environment construction."""

from __future__ import annotations

import dataclasses
import inspect

import pytest

from repro.cluster.server import ClusterServer
from repro.core.inductor import InductorConfig
from repro.resilience.failover import FALLBACK_BACKENDS, fallback_config
from repro.runtime.server import InlineBackend, InsumServer
from repro.serve import BACKENDS, ServeConfig, ServeConfigError, Session


def test_defaults_valid_on_every_backend():
    config = ServeConfig()
    for backend in ("inline", "threaded", "cluster"):
        config.validate(backend)  # must not raise


def test_unknown_backend_rejected():
    with pytest.raises(ServeConfigError, match="unknown backend"):
        ServeConfig().validate("gpu-farm")
    with pytest.raises(ServeConfigError, match="unknown backend"):
        Session(backend="gpu-farm")


#: What each tier's forwarded kwargs must be accepted by.
_TIER_CONSTRUCTORS = {
    "inline": InlineBackend,
    "threaded": InsumServer,
    "cluster": ClusterServer,
}

#: (value, REPRO_SERVE_* spelling) per annotation; the value is valid on
#: every tier that accepts the field and differs from its default.
_SAMPLES = {"int": (3, "3"), "float": (1.5, "1.5"), "str": ("eager", "eager")}
_ENUMERATED = {
    "admission": ("reject", "reject"),
    "failover": ("threaded", "threaded"),
    "worker_threads": (1, "1"),
}


def _sample(config_field):
    if config_field.name in _ENUMERATED:
        return _ENUMERATED[config_field.name]
    kind = config_field.type.split(" | ")[0]
    if kind == "bool":
        value = config_field.default is not True
        return value, "on" if value else "off"
    if kind == "Any":
        return InductorConfig(), None  # not expressible as an environment string
    return _SAMPLES[kind]


@pytest.mark.parametrize("config_field", dataclasses.fields(ServeConfig), ids=lambda f: f.name)
def test_one_declaration_drives_validate_env_kwargs_and_fallback(config_field):
    """A field's metadata is the only place its tiers and kwarg are written:
    validation, env parsing, kwarg forwarding and the failover derivation
    must all follow it — never silently drop or mis-route a field."""
    name, tiers, kwarg = (
        config_field.name,
        config_field.metadata["backends"],
        config_field.metadata["kwarg"],
    )
    value, raw = _sample(config_field)
    config = ServeConfig(**{name: value})
    for backend in BACKENDS:
        forwarded = config._backend_kwargs(backend)
        if backend not in tiers:
            with pytest.raises(ServeConfigError, match=name):
                config.validate(backend)
            assert kwarg not in forwarded
            continue
        config.validate(backend)
        if kwarg is not None:
            assert forwarded[kwarg] == value
            assert kwarg in inspect.signature(_TIER_CONSTRUCTORS[backend]).parameters
    variable = f"REPRO_SERVE_{name.upper()}"
    if raw is None:
        assert ServeConfig.from_env({variable: "anything"}) == ServeConfig()
    else:
        assert getattr(ServeConfig.from_env({variable: raw}), name) == value
    for fallback in FALLBACK_BACKENDS:
        derived = getattr(fallback_config(config, fallback), name)
        assert derived == (value if fallback in tiers else None)


def test_validation_messages_name_every_offending_field():
    config = ServeConfig(workers=4, max_inflight=10, admission="reject")
    with pytest.raises(ServeConfigError) as excinfo:
        config.validate("inline")
    message = str(excinfo.value)
    assert "workers" in message and "max_inflight" in message and "admission" in message


def test_value_validation():
    with pytest.raises(ServeConfigError, match="workers"):
        ServeConfig(workers=0).validate("threaded")
    with pytest.raises(ServeConfigError, match="admission"):
        ServeConfig(admission="panic").validate("cluster")


def test_worker_threads_is_one_or_unset():
    """A cluster worker executes on its main thread: 1 is the only value."""
    for value in (None, 1):
        ServeConfig(worker_threads=value).validate("cluster")
    with pytest.raises(ServeConfigError, match="worker_threads"):
        ServeConfig(worker_threads=2).validate("cluster")
    with pytest.raises(ValueError, match="worker_threads"):
        ClusterServer(worker_threads=2)


def test_resolved_workers_defaults():
    """Each tier reports the parallelism it built; no config method repeats the defaults."""
    for backend, workers in (("inline", 1), ("threaded", 4), ("cluster", 2)):
        with Session(backend=backend) as session:
            assert session.stats().workers == workers
    with Session(backend="threaded", config=ServeConfig(workers=7)) as session:
        assert session.stats().workers == 7


def test_from_env_parses_typed_fields():
    config = ServeConfig.from_env(
        {
            "REPRO_SERVE_WORKERS": "8",
            "REPRO_SERVE_COALESCE": "off",
            "REPRO_SERVE_BLOCK_TIMEOUT": "2.5",
            "UNRELATED": "ignored",
        }
    )
    assert config.workers == 8
    assert config.coalesce is False
    assert config.block_timeout == 2.5
    assert config.max_inflight is None  # unset stays at the tier default


@pytest.mark.parametrize("raw", ["1", "true", "Yes", "ON"])
def test_from_env_boolean_truthy(raw):
    assert ServeConfig.from_env({"REPRO_SERVE_AUTO_FORMAT": raw}).auto_format is True


def test_from_env_bad_value_raises():
    with pytest.raises(ServeConfigError, match="REPRO_SERVE_WORKERS"):
        ServeConfig.from_env({"REPRO_SERVE_WORKERS": "many"})
    with pytest.raises(ServeConfigError, match="REPRO_SERVE_COALESCE"):
        ServeConfig.from_env({"REPRO_SERVE_COALESCE": "maybe"})


def test_session_from_env_runs_a_request(spmm_operands):
    environ = {"REPRO_SERVE_BACKEND": "threaded", "REPRO_SERVE_WORKERS": "2"}
    with Session.from_env(environ) as session:
        assert session.backend_name == "threaded"
        assert session.config.workers == 2
        future = session.submit("C[m,n] += A[m,k] * B[k,n]", **spmm_operands)
        assert future.result(timeout=30).shape == (32, 8)


def test_session_from_env_rejects_cross_tier_config():
    environ = {"REPRO_SERVE_BACKEND": "threaded", "REPRO_SERVE_MAX_INFLIGHT": "16"}
    with pytest.raises(ServeConfigError, match="max_inflight"):
        Session.from_env(environ)
