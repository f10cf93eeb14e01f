"""Serving behind an async web frontend: Session's asyncio bridge.

The shape of a production deployment: an async HTTP server (aiohttp,
FastAPI/uvicorn, ...) handles many concurrent user requests on one event
loop, and each handler awaits the sparse-Einsum result from a
multi-process cluster — without ever blocking the loop.  This example
simulates that frontend with plain asyncio (no web framework needed in
this offline environment): `handle_request` is written exactly like an
aiohttp handler body, and `main` fires 64 concurrent "HTTP requests" at
it.

The last section is the ops side of the same deployment: scrape the
gateway's Prometheus route the way a collector would, and dump one
request's trace to see where its latency went.

Run with:  PYTHONPATH=src python examples/serve_asyncio.py
"""

import asyncio
import time
import urllib.request

import numpy as np

from repro import ServeConfig, Session
from repro.formats import GroupCOO

EXPRESSION = "C[m,n] += A[m,k] * B[k,n]"


def build_model_weights(rng: np.random.Generator) -> GroupCOO:
    """The long-lived sparse operand every request multiplies against."""
    dense = np.where(rng.random((128, 192)) < 0.06, rng.standard_normal((128, 192)), 0.0)
    return GroupCOO.from_dense(dense, group_size=4)


async def handle_request(session: Session, weights: GroupCOO, payload: np.ndarray) -> dict:
    """One simulated HTTP handler: await the cluster, return a JSON-able body.

    In aiohttp this would be::

        async def handle(request):
            payload = decode(await request.read())
            result = await session.asubmit(EXPRESSION, A=WEIGHTS, B=payload)
            return web.json_response({"rows": result.shape[0]})
    """
    result = await session.asubmit(EXPRESSION, A=weights, B=payload)
    return {"rows": int(result.shape[0]), "checksum": float(np.sum(result))}


async def main() -> None:
    rng = np.random.default_rng(0)
    weights = build_model_weights(rng)
    payloads = [rng.standard_normal((192, 16)) for _ in range(64)]

    # One cluster session behind the whole frontend.  Swap the backend
    # string for "threaded" (or "inline") to serve without processes.
    config = ServeConfig(workers=2, worker_threads=2, max_inflight=256)
    with Session(backend="cluster", config=config) as session:
        # Warm the compile caches once so the measured burst is steady-state.
        await handle_request(session, weights, payloads[0])

        started = time.perf_counter()
        responses = await asyncio.gather(
            *[handle_request(session, weights, payload) for payload in payloads]
        )
        elapsed = time.perf_counter() - started
        print(f"served {len(responses)} concurrent requests in {elapsed * 1e3:.1f} ms")
        print("first response:", responses[0])

        # Streaming variant: async-iterate results in order with a bounded
        # in-flight window (an SSE/chunked-response handler's shape).
        count = 0
        async for output in session.amap_batches(
            [(EXPRESSION, dict(A=weights, B=payload)) for payload in payloads[:16]],
            window=8,
        ):
            count += 1
            assert output.shape == (128, 16)
        print(f"streamed {count} results via amap_batches")

        print(session.stats().summary())

        # --- Observability: scrape /metrics, then dump one trace. ---------
        # In production you'd set REPRO_GATEWAY_PORT, build the session with
        # Session.from_env() and point Prometheus at the gateway's /metrics;
        # here we bind an ephemeral port and scrape it ourselves.
        gateway = session.serve_gateway()
        with urllib.request.urlopen(gateway.url("/metrics"), timeout=10) as response:
            exposition = response.read().decode()
        serve_lines = [
            line for line in exposition.splitlines()
            if line.startswith("repro_serve_") and not line.startswith("#")
        ]
        print(f"\nscraped {gateway.url('/metrics')}: "
              f"{len(exposition.splitlines())} lines, e.g.")
        for line in serve_lines[:4]:
            print(f"  {line}")

        # Every future carries its request's trace: named, non-overlapping
        # spans from admission to response, across the process boundary.
        future = session.submit(EXPRESSION, A=weights, B=payloads[0])
        future.result(timeout=30)
        trace = future.trace()
        print(f"\ntrace {trace.trace_id} ({future.latency_ms:.2f} ms wall):")
        for span in trace.spans():
            meta = f"  {span.meta}" if span.meta else ""
            print(f"  {span.name:<20} {span.duration_ms:8.3f} ms{meta}")


if __name__ == "__main__":
    asyncio.run(main())
