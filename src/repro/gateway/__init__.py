"""repro.gateway: the async HTTP front door over a serve Session.

The network edge of the serving stack — one versioned ``/v1`` wire API
that turns any :class:`~repro.serve.Session` into an HTTP service:

* :class:`GatewayServer` — a stdlib-asyncio HTTP server: per-tenant
  API-key auth and admission quotas, header-carried deadlines shed at
  the edge, trace propagation, and a binary operand encoding that reuses
  the cluster codec's descriptor scheme so sparse patterns ship once per
  connection and identity-keyed caches stay hot.
* :class:`GatewayClient` — the Session-shaped client (``submit() ->
  Future``), re-raising the *same* :mod:`repro.errors` types the server
  mapped onto HTTP, with :class:`~repro.resilience.retry.RetryPolicy`
  honoring 429 ``retry_after`` hints.
* :class:`GatewayConfig` — typed, validated configuration with
  ``REPRO_GATEWAY_*`` environment parsing;
  :meth:`repro.serve.Session.from_env` starts a gateway automatically
  when ``REPRO_GATEWAY_PORT`` is set.

See ``docs/GATEWAY.md`` for the endpoint reference, wire format, auth
model, and error-code table.
"""

from repro.errors import (
    GatewayAuthError,
    GatewayError,
    TenantQuotaError,
    WireFormatError,
)
from repro.gateway.auth import ANONYMOUS_TENANT, Authenticator, TenantQuota
from repro.gateway.client import GatewayClient
from repro.gateway.config import (
    ENV_PREFIX,
    GATEWAY_PORT_ENV,
    GatewayConfig,
    GatewayConfigError,
)
from repro.gateway.server import GatewayServer
from repro.gateway.wire import (
    API_KEY_HEADER,
    BINARY_CONTENT_TYPE,
    DEADLINE_HEADER,
    JSON_CONTENT_TYPE,
    TRACE_HEADER,
    WireDecoder,
    WireEncoder,
    api_index,
    decode_error,
    encode_error,
    http_status,
)

__all__ = [
    "ANONYMOUS_TENANT",
    "API_KEY_HEADER",
    "BINARY_CONTENT_TYPE",
    "DEADLINE_HEADER",
    "ENV_PREFIX",
    "GATEWAY_PORT_ENV",
    "JSON_CONTENT_TYPE",
    "TRACE_HEADER",
    "Authenticator",
    "GatewayAuthError",
    "GatewayClient",
    "GatewayConfig",
    "GatewayConfigError",
    "GatewayError",
    "GatewayServer",
    "TenantQuota",
    "TenantQuotaError",
    "WireDecoder",
    "WireEncoder",
    "WireFormatError",
    "api_index",
    "decode_error",
    "encode_error",
    "http_status",
]
