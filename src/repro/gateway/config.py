"""GatewayConfig: typed, validated configuration for the HTTP gateway.

The same configuration discipline as :class:`~repro.serve.config.ServeConfig`
applied to the network edge: one frozen dataclass, explicit rejection of
meaningless combinations (per-tenant quota overrides without an API
keyring to name tenants), and ``REPRO_GATEWAY_*`` environment parsing
(the same helper ``ServeConfig.from_env`` uses) so a deployment
turns the gateway on without a code change —
:meth:`repro.serve.Session.from_env` starts one automatically when
``REPRO_GATEWAY_PORT`` is set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.errors import GatewayError
from repro.serve.config import config_from_env

__all__ = ["GatewayConfig", "GatewayConfigError", "GATEWAY_PORT_ENV", "ENV_PREFIX"]

#: Environment-variable prefix understood by :meth:`GatewayConfig.from_env`.
ENV_PREFIX = "REPRO_GATEWAY_"

#: When set, :meth:`repro.serve.Session.from_env` starts a gateway on
#: this port (0 = ephemeral).
GATEWAY_PORT_ENV = "REPRO_GATEWAY_PORT"


class GatewayConfigError(GatewayError, ValueError):
    """A :class:`GatewayConfig` is internally inconsistent or unparseable."""


def _parse_api_keys(raw: str) -> dict[str, str]:
    """Parse ``key=tenant,key2=tenant2`` into a keyring mapping."""
    keys: dict[str, str] = {}
    for pair in raw.split(","):
        pair = pair.strip()
        if not pair:
            continue
        key, sep, tenant = pair.partition("=")
        if not sep or not key.strip() or not tenant.strip():
            raise ValueError(f"expected key=tenant, got {pair!r}")
        keys[key.strip()] = tenant.strip()
    if not keys:
        raise ValueError("no key=tenant pairs")
    return keys


def _parse_tenant_quotas(raw: str) -> dict[str, int]:
    """Parse ``tenant=limit,tenant2=limit2`` into a quota mapping."""
    quotas: dict[str, int] = {}
    for pair in raw.split(","):
        pair = pair.strip()
        if not pair:
            continue
        tenant, sep, limit = pair.partition("=")
        if not sep or not tenant.strip():
            raise ValueError(f"expected tenant=limit, got {pair!r}")
        quotas[tenant.strip()] = int(limit)
    if not quotas:
        raise ValueError("no tenant=limit pairs")
    return quotas


@dataclass(frozen=True)
class GatewayConfig:
    """Typed configuration for :class:`repro.gateway.GatewayServer`.

    Parameters
    ----------
    host / port:
        Bind address; ``port=0`` picks an ephemeral port (read it back
        from ``GatewayServer.port``).  Loopback by default — front the
        gateway with a real proxy before exposing it.
    api_keys:
        API keyring: key string -> tenant name.  ``None`` disables
        authentication (every request serves as tenant ``"anonymous"``);
        with a keyring set, a request without a key is rejected 401 and
        an unknown key 403.
    max_inflight_per_tenant:
        Per-tenant admission quota layered on the cluster-wide gate: a
        tenant already holding this many in-flight gateway requests is
        rejected 429 (:class:`~repro.errors.TenantQuotaError`) without
        spending a Session slot.  ``None`` disables the per-tenant gate.
    tenant_quotas:
        Per-tenant overrides of ``max_inflight_per_tenant`` — requires
        ``api_keys`` (without a keyring there are no named tenants to
        override).
    quota_retry_after:
        The ``retry_after`` hint (seconds) carried by quota rejections.
    binary:
        Accept the raw binary operand encoding (magic ``RGW1``) next to
        JSON.
    max_body_bytes:
        Largest accepted request body; larger requests are rejected 400
        before the body is read into memory.
    """

    host: str = "127.0.0.1"
    port: int = 0
    api_keys: Mapping[str, str] | None = None
    max_inflight_per_tenant: int | None = None
    tenant_quotas: Mapping[str, int] | None = None
    quota_retry_after: float = 0.05
    binary: bool = True
    max_body_bytes: int = 256 * 1024 * 1024

    def validate(self) -> None:
        """Reject inconsistent field combinations (nothing is ignored).

        Raises
        ------
        GatewayConfigError
            When a field combination is meaningless (per-tenant quota
            overrides without an API keyring) or a numeric field is out
            of range.
        """
        if not (0 <= self.port <= 65535):
            raise GatewayConfigError(f"port must be in [0, 65535], got {self.port}")
        if self.tenant_quotas is not None and self.api_keys is None:
            raise GatewayConfigError(
                "tenant_quotas requires api_keys: without a keyring every "
                "request is the anonymous tenant and per-tenant overrides "
                "can never apply"
            )
        if self.api_keys is not None and not self.api_keys:
            raise GatewayConfigError(
                "api_keys must be None (auth disabled) or non-empty — an "
                "empty keyring would reject every request"
            )
        if self.tenant_quotas is not None:
            unknown = set(self.tenant_quotas) - set((self.api_keys or {}).values())
            if unknown:
                raise GatewayConfigError(
                    "tenant_quotas name tenants absent from api_keys: "
                    f"{', '.join(sorted(unknown))}"
                )
        if self.max_inflight_per_tenant is not None and self.max_inflight_per_tenant < 1:
            raise GatewayConfigError(
                f"max_inflight_per_tenant must be >= 1, got {self.max_inflight_per_tenant}"
            )
        for tenant, limit in (self.tenant_quotas or {}).items():
            if limit < 1:
                raise GatewayConfigError(
                    f"tenant_quotas[{tenant!r}] must be >= 1, got {limit}"
                )
        if self.quota_retry_after < 0:
            raise GatewayConfigError(
                f"quota_retry_after must be >= 0, got {self.quota_retry_after}"
            )
        if self.max_body_bytes < 1:
            raise GatewayConfigError(
                f"max_body_bytes must be >= 1, got {self.max_body_bytes}"
            )

    @classmethod
    def from_env(cls, environ: Mapping[str, str] | None = None) -> "GatewayConfig":
        """Build a config from ``REPRO_GATEWAY_*`` environment variables.

        Each dataclass field maps to ``REPRO_GATEWAY_<FIELD>``:
        ``REPRO_GATEWAY_PORT=8080``,
        ``REPRO_GATEWAY_API_KEYS=key-a=acme,key-b=beta``,
        ``REPRO_GATEWAY_TENANT_QUOTAS=acme=64``,
        ``REPRO_GATEWAY_BINARY=off``, ...  Unset variables leave the
        field at its default; values are parsed by the field's type and
        the assembled config is validated before it is returned.

        Parameters
        ----------
        environ:
            The mapping to read (defaults to ``os.environ``).
        """
        config = config_from_env(
            cls,
            ENV_PREFIX,
            environ,
            GatewayConfigError,
            parsers={"api_keys": _parse_api_keys, "tenant_quotas": _parse_tenant_quotas},
        )
        config.validate()
        return config

    def tenant_limit(self, tenant: str) -> int | None:
        """The effective in-flight quota for ``tenant`` (None = unlimited)."""
        if self.tenant_quotas is not None and tenant in self.tenant_quotas:
            return self.tenant_quotas[tenant]
        return self.max_inflight_per_tenant
