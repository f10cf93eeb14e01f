"""GatewayConfig: combination rejection and ``REPRO_GATEWAY_*`` parsing."""

from __future__ import annotations

import dataclasses

import pytest

from repro.gateway import GatewayConfig, GatewayConfigError, WireDecoder

#: field -> (non-default value, its REPRO_GATEWAY_* spelling).
_ENV_SAMPLES = {
    "host": ("0.0.0.0", "0.0.0.0"),
    "port": (8123, "8123"),
    "api_keys": ({"key-a": "acme"}, "key-a=acme"),
    "max_inflight_per_tenant": (128, "128"),
    "tenant_quotas": ({"acme": 64}, "acme=64"),
    "quota_retry_after": (0.2, "0.2"),
    "binary": (False, "off"),
    "max_body_bytes": (1048576, "1048576"),
}


class TestValidation:
    def test_defaults_are_valid(self):
        GatewayConfig().validate()

    def test_codec_caches_are_not_configurable(self):
        """Both ends of the wire read one constant, so the mirror cannot be sized apart."""
        with pytest.raises(TypeError):
            GatewayConfig(array_cache_size=8)
        with pytest.raises(TypeError):
            WireDecoder(8)

    def test_tenant_quotas_require_keyring(self):
        with pytest.raises(GatewayConfigError, match="requires api_keys"):
            GatewayConfig(tenant_quotas={"acme": 4}).validate()

    def test_empty_keyring_rejected(self):
        with pytest.raises(GatewayConfigError, match="non-empty"):
            GatewayConfig(api_keys={}).validate()

    def test_quota_for_unknown_tenant_rejected(self):
        with pytest.raises(GatewayConfigError, match="ghost"):
            GatewayConfig(
                api_keys={"k": "acme"}, tenant_quotas={"ghost": 4}
            ).validate()

    @pytest.mark.parametrize("field", ["max_inflight_per_tenant"])
    def test_counts_below_one_rejected(self, field):
        with pytest.raises(GatewayConfigError, match=field):
            GatewayConfig(**{field: 0}).validate()

    def test_quota_value_below_one_rejected(self):
        with pytest.raises(GatewayConfigError, match="acme"):
            GatewayConfig(api_keys={"k": "acme"}, tenant_quotas={"acme": 0}).validate()

    def test_out_of_range_port_rejected(self):
        with pytest.raises(GatewayConfigError, match="port"):
            GatewayConfig(port=70000).validate()

    def test_negative_retry_after_rejected(self):
        with pytest.raises(GatewayConfigError, match="quota_retry_after"):
            GatewayConfig(quota_retry_after=-1.0).validate()

    def test_consistent_config_passes(self):
        GatewayConfig(
            api_keys={"k1": "acme", "k2": "beta"},
            max_inflight_per_tenant=8,
            tenant_quotas={"acme": 2},
        ).validate()


class TestTenantLimit:
    def test_override_beats_default(self):
        config = GatewayConfig(
            api_keys={"k1": "acme", "k2": "beta"},
            max_inflight_per_tenant=8,
            tenant_quotas={"acme": 2},
        )
        assert config.tenant_limit("acme") == 2
        assert config.tenant_limit("beta") == 8

    def test_unlimited_when_unset(self):
        assert GatewayConfig().tenant_limit("anyone") is None


class TestFromEnv:
    def test_unset_environment_gives_defaults(self):
        assert GatewayConfig.from_env({}) == GatewayConfig()

    def test_full_environment_parse(self):
        config = GatewayConfig.from_env(
            {
                "REPRO_GATEWAY_HOST": "0.0.0.0",
                "REPRO_GATEWAY_PORT": "8123",
                "REPRO_GATEWAY_API_KEYS": "key-a=acme, key-b=beta",
                "REPRO_GATEWAY_TENANT_QUOTAS": "acme=64",
                "REPRO_GATEWAY_MAX_INFLIGHT_PER_TENANT": "128",
                "REPRO_GATEWAY_QUOTA_RETRY_AFTER": "0.2",
                "REPRO_GATEWAY_MAX_BODY_BYTES": "1048576",
            }
        )
        assert config.host == "0.0.0.0"
        assert config.port == 8123
        assert config.api_keys == {"key-a": "acme", "key-b": "beta"}
        assert config.tenant_quotas == {"acme": 64}
        assert config.max_inflight_per_tenant == 128
        assert config.quota_retry_after == 0.2
        assert config.max_body_bytes == 1048576

    @pytest.mark.parametrize("raw,expected", [("on", True), ("0", False), ("FALSE", False)])
    def test_boolean_parse(self, raw, expected):
        assert GatewayConfig.from_env({"REPRO_GATEWAY_BINARY": raw}).binary is expected

    @pytest.mark.parametrize(
        "name,raw",
        [
            ("REPRO_GATEWAY_PORT", "not-a-port"),
            ("REPRO_GATEWAY_BINARY", "maybe"),
            ("REPRO_GATEWAY_API_KEYS", "no-equals-sign"),
            ("REPRO_GATEWAY_TENANT_QUOTAS", "acme=lots"),
        ],
    )
    def test_unparseable_value_names_the_variable(self, name, raw):
        with pytest.raises(GatewayConfigError, match=name):
            GatewayConfig.from_env({name: raw})

    def test_invalid_combination_rejected_at_parse(self):
        with pytest.raises(GatewayConfigError):
            GatewayConfig.from_env({"REPRO_GATEWAY_TENANT_QUOTAS": "acme=4"})

    @pytest.mark.parametrize(
        "config_field", dataclasses.fields(GatewayConfig), ids=lambda f: f.name
    )
    def test_every_field_round_trips_through_its_variable(self, config_field):
        """No field can be added without ``REPRO_GATEWAY_<FIELD>`` reaching it."""
        value, raw = _ENV_SAMPLES[config_field.name]
        environ = {f"REPRO_GATEWAY_{config_field.name.upper()}": raw}
        if config_field.name == "tenant_quotas":
            environ["REPRO_GATEWAY_API_KEYS"] = "key-a=acme"  # quotas need named tenants
        assert getattr(GatewayConfig.from_env(environ), config_field.name) == value
