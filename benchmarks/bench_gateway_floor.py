"""The gateway against a measured floor, and where its process spends the CPU.

Two reports:

* **The floor.**  A bare asyncio-streams HTTP/1.1 server (one ``readuntil``
  per head, one ``readexactly`` per body, nothing behind it) answers
  54,933-byte POSTs, the layer record's ``gateway.wire_bytes_per_req``, with
  8 KB replies.  Two clients drive it closed-loop at 1 and 4 outstanding, one
  keep-alive connection per thread: ``http.client`` and the gateway client's
  exchange (one ``sendmsg`` per request, one head parse per reply).  Each cell
  reports p50 latency and requests a second over ``ROUNDS`` alternating rounds.
* **The census.**  The ``serve_gateway_cluster`` stack of the layer benchmark
  (``GatewayClient`` -> gateway -> cluster session, its eight-slot mix, every
  reply checked against its oracle) runs ``CENSUS_REQUESTS`` closed-loop
  requests at 4 outstanding.  Each thread's CPU time (user + system, from
  ``/proc/self/task/<tid>/stat``) is read before and after and charged, in
  microseconds per request, to the thread's role.  Linux only.

Both run in this one process, as the layer benchmark does::

    PYTHONPATH=src python -m pytest -q -s benchmarks/bench_gateway_floor.py --seed 7

``-k census`` runs the census alone.
"""

from __future__ import annotations

import os

# One BLAS thread, as the layer benchmark pins it (the cluster workers inherit it).
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_variable, "1")

import asyncio  # noqa: E402
import http.client  # noqa: E402
import re  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import pytest  # noqa: E402

from repro.analysis import format_table  # noqa: E402
from repro.gateway import client as gateway_client  # noqa: E402

LAYERS = Path(__file__).resolve().parent / "layers"

#: The layer record's ``gateway.wire_bytes_per_req`` and the floor's reply size.
REQUEST_BYTES, REPLY_BYTES = 54_933, 8_192
OUTSTANDING = (1, 4)
ROUNDS, ROUND_S, WARMUP = 3, 1.5, 50
CENSUS_REQUESTS = 3_000

_CONTENT_LENGTH = re.compile(rb"(?i)\r\ncontent-length: *(\d+)")


# -- the floor -----------------------------------------------------------------
class FloorServer:
    """A bare HTTP/1.1 server on its own event-loop thread: read a head and a
    ``Content-Length`` body, answer ``REPLY_BYTES`` zero bytes, keep alive."""

    REPLY = b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n" % REPLY_BYTES + bytes(REPLY_BYTES)

    def __init__(self):
        self._loop = asyncio.new_event_loop()
        ready = threading.Event()
        self._thread = threading.Thread(target=self._run, args=(ready,), daemon=True)
        self._thread.start()
        ready.wait(timeout=10)

    def _run(self, ready: threading.Event) -> None:
        asyncio.set_event_loop(self._loop)
        server = self._loop.run_until_complete(asyncio.start_server(self._handle, "127.0.0.1", 0))
        self.port = server.sockets[0].getsockname()[1]
        ready.set()
        self._loop.run_forever()
        server.close()
        self._loop.run_until_complete(server.wait_closed())
        self._loop.close()

    async def _handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                head = await reader.readuntil(b"\r\n\r\n")
                length = _CONTENT_LENGTH.search(head)
                await reader.readexactly(int(length.group(1)) if length else 0)
                writer.write(self.REPLY)
                await writer.drain()
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        finally:
            writer.close()

    def close(self) -> None:
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10)


def http_client_post(port: int):
    """One ``http.client`` keep-alive connection; returns its POST call."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    headers = {"Content-Type": "application/octet-stream"}

    def post(body: bytes) -> bytes:
        conn.request("POST", "/", body=body, headers=headers)
        return conn.getresponse().read()

    return post, conn.close


def exchange_post(port: int):
    """One connection of the gateway client's exchange; returns its POST call."""
    conn = gateway_client._Connection("127.0.0.1", port, 30.0)
    headers = {"Content-Type": "application/octet-stream"}

    def post(body: bytes) -> bytes:
        return conn.exchange("POST", "/", headers, body)[2]

    return post, conn.close


CLIENTS = {"http.client": http_client_post, "exchange": exchange_post}


def drive(connect, port: int, outstanding: int, seconds: float) -> tuple[list[float], float]:
    """``outstanding`` threads, each a closed loop on its own connection for
    ``seconds``; the latencies (ms) of every request and the requests a second."""
    body = bytes(REQUEST_BYTES)
    latencies: list[list[float]] = [[] for _ in range(outstanding)]
    start = threading.Barrier(outstanding + 1)

    def loop(mine: list[float]) -> None:
        post, close = connect(port)
        try:
            for _ in range(WARMUP):
                assert len(post(body)) == REPLY_BYTES
            start.wait()
            end = time.perf_counter() + seconds
            while (began := time.perf_counter()) < end:
                assert len(post(body)) == REPLY_BYTES
                mine.append((time.perf_counter() - began) * 1e3)
        finally:
            close()

    threads = [threading.Thread(target=loop, args=(mine,)) for mine in latencies]
    for thread in threads:
        thread.start()
    start.wait()
    began = time.perf_counter()
    for thread in threads:
        thread.join()
    pooled = [ms for mine in latencies for ms in mine]
    return pooled, len(pooled) / (time.perf_counter() - began)


def test_gateway_floor(report):
    server = FloorServer()
    cells: dict[tuple[str, int], tuple[list[float], list[float]]] = {
        (name, outstanding): ([], []) for name in CLIENTS for outstanding in OUTSTANDING
    }
    try:
        for _ in range(ROUNDS):  # alternate the cells, so drift hits each alike
            for (name, outstanding), (latencies, rates) in cells.items():
                lat, rate = drive(CLIENTS[name], server.port, outstanding, ROUND_S)
                latencies += lat
                rates.append(rate)
    finally:
        server.close()
    rows = [
        (name, outstanding, statistics.median(lat), statistics.median(rates), len(lat))
        for (name, outstanding), (lat, rates) in cells.items()
    ]
    report(
        "gateway_floor",
        format_table(
            ["client", "outstanding", "p50 ms", "req/s", "requests"],
            rows,
            title=f"Bare asyncio HTTP/1.1 server: {REQUEST_BYTES}-byte POST, "
            f"{REPLY_BYTES}-byte reply, {ROUNDS} rounds of {ROUND_S} s",
            float_format="{:.3f}",
        ),
    )
    for _, _, p50, rate, count in rows:
        assert count > 0 and p50 > 0 and rate > 0


# -- the census ----------------------------------------------------------------
def thread_cpu_s() -> dict[int, float]:
    """User + system CPU seconds of every live thread of this process, by native id."""
    ticks = os.sysconf("SC_CLK_TCK")
    times = {}
    for tid in os.listdir("/proc/self/task"):
        try:
            with open(f"/proc/self/task/{tid}/stat") as stat:
                # Fields after the parenthesised name: utime and stime are the 12th and 13th.
                fields = stat.read().rpartition(")")[2].split()
        except FileNotFoundError:  # the thread exited
            continue
        times[int(tid)] = (int(fields[11]) + int(fields[12])) / ticks
    return times


ROLES = (
    ("repro-gateway-client", "GatewayClient pool"),
    ("repro-gateway", "gateway asyncio loop"),
    ("MainThread", "bench generator + oracle check"),
    ("cluster-", "cluster threads"),
    ("asyncio_", "asyncio executor (submit hop)"),
)


def role(thread_name: str) -> str:
    return next((role for prefix, role in ROLES if thread_name.startswith(prefix)), "other")


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs Linux /proc")
def test_gateway_census(report, seed):
    sys.path.insert(0, str(LAYERS))
    try:
        import serving
        import workloads
        from measure import Tally
    finally:
        sys.path.remove(str(LAYERS))
    mix = workloads.serving_mix(seed)
    tally = Tally()
    stack = serving.open_gateway()
    try:
        sent = len(mix)
        serving.closed_loop(stack.submit, mix, 1, sent, tally)
        serving.closed_loop(stack.submit, mix, 4, CENSUS_REQUESTS // 4, tally, sent)
        sent += CENSUS_REQUESTS // 4
        before, process_before = thread_cpu_s(), time.process_time()
        serving.closed_loop(stack.submit, mix, 4, CENSUS_REQUESTS, tally, sent)
        after, process_after = thread_cpu_s(), time.process_time()
        names = {thread.native_id: thread.name for thread in threading.enumerate()}
    finally:
        stack.close()
    assert tally.failed == 0, tally.notes
    per_role: dict[str, float] = {}
    for tid, cpu_s in after.items():
        label = role(names.get(tid, ""))
        per_role[label] = per_role.get(label, 0.0) + cpu_s - before.get(tid, 0.0)
    whole_us = (process_after - process_before) / CENSUS_REQUESTS * 1e6
    rows = [
        (label, cpu_s / CENSUS_REQUESTS * 1e6, f"{cpu_s / CENSUS_REQUESTS * 1e6 / whole_us:.0%}")
        for label, cpu_s in sorted(per_role.items(), key=lambda item: -item[1])
    ]
    rows.append(("whole process", whole_us, ""))
    report(
        "gateway_census",
        format_table(
            ["thread", "us/request", "share"],
            rows,
            title=f"serve_gateway_cluster, {CENSUS_REQUESTS} closed-loop requests, "
            f"4 outstanding, seed {seed}: CPU per thread role",
            float_format="{:.0f}",
        ),
    )
