"""The two serving workloads and the load generators they share.

Both are closed loops driven by one generator thread: a request is sent when
an earlier one completes, so a slow system receives less load — Session
callers wait for their replies.  Latency runs from just before ``submit`` to
the moment the future resolves (a done-callback stamps it), and each response
is compared with its oracle after that stamp is taken.
"""

from __future__ import annotations

import os
import queue
import statistics
import time
from typing import Any, Callable

from repro import GatewayClient, GatewayConfig, ServeConfig, Session

import workloads
from measure import Budget, Tally, pct, rounds, spread
from spans import SpanLog
from workloads import Slot

NPROC = os.cpu_count() or 1
API_KEY = "layers-bench-key"
#: A response later than this counts as failed; nothing here takes 1% of it.
REPLY_TIMEOUT_S = 30.0


class Stack:
    """An open serving stack: ``submit`` plus what must be closed after it."""

    def __init__(self, session: Session, client: GatewayClient | None = None):
        self.session = session
        self.client = client
        self.submit = session.submit if client is None else client.submit

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
        self.session.close()


def open_inline() -> Stack:
    return Stack(Session("inline"))


def open_threaded() -> Stack:
    return Stack(Session("threaded", ServeConfig(workers=2)))


def open_cluster() -> Stack:
    return Stack(Session("cluster", ServeConfig(workers=max(1, NPROC - 1), worker_threads=1)))


def open_gateway() -> Stack:
    """``GatewayClient`` (binary RGW1, API key) -> gateway -> cluster session."""
    session = open_cluster().session
    server = session.serve_gateway(config=GatewayConfig(api_keys={API_KEY: "layers"}), port=0)
    client = GatewayClient(
        f"http://127.0.0.1:{server.port}", api_key=API_KEY, max_connections=min(4, NPROC)
    )
    return Stack(session, client)


def send(
    submit, slot: Slot, index: int, done: queue.SimpleQueue, wall: bool, due: float = 0.0
) -> None:
    """Submit request ``index`` of ``slot``; its completion lands on ``done``.

    ``wall`` adds ``time.time()`` stamps beside the ``perf_counter`` ones, so
    the suite's spans share a clock with the program's.  ``due`` is when an
    open-loop schedule wanted the request sent.
    """
    operands, oracle = slot.request(index)
    record = {"slot": slot, "oracle": oracle, "due": due}
    record["wall_start"] = time.time() if wall else 0.0
    record["start"] = time.perf_counter()
    future = submit(slot.expression, **operands)
    if wall:
        record["wall_submitted"] = time.time()

    def on_done(finished) -> None:
        record["end"] = time.perf_counter()
        if wall:
            record["wall_end"] = time.time()
        done.put((finished, record))

    future.add_done_callback(on_done)


def settle(done: queue.SimpleQueue, tally: Tally, log: SpanLog | None = None) -> dict | None:
    """Take one completion off ``done`` and count it; its record when the
    reply arrived, without error and equal to its oracle, else ``None``."""
    try:
        future, record = done.get(timeout=REPLY_TIMEOUT_S)
    except queue.Empty:
        tally.fail("reply", f"none within {REPLY_TIMEOUT_S:.0f} s")
        return None
    slot = record["slot"]
    error = future.exception(timeout=0)
    if error is not None:
        tally.fail(slot.name, repr(error))
        return None
    if log is not None:
        log.add_request(record, future.trace())
    if not tally.check(slot.name, future.result(timeout=0), record["oracle"], single=False):
        return None
    return record


def closed_loop(
    submit,
    mix: list[Slot],
    outstanding: int,
    requests: int,
    tally: Tally,
    first: int = 0,
    log: SpanLog | None = None,
) -> tuple[list[float], float]:
    """``requests`` requests with ``outstanding`` in flight.

    Returns the latencies (ms) of the correct replies and the wall seconds
    from the first send to the last completion.  Request ``i`` uses slot
    ``i % len(mix)`` and pool entry ``i // len(mix)``.
    """
    done: queue.SimpleQueue = queue.SimpleQueue()
    latencies: list[float] = []
    sent = settled = 0
    start = time.perf_counter()
    while settled < requests:
        while sent < requests and sent - settled < outstanding:
            index = first + sent
            send(submit, mix[index % len(mix)], index // len(mix), done, wall=log is not None)
            sent += 1
        record = settle(done, tally, log)
        settled += 1
        if record is not None:
            latencies.append((record["end"] - record["start"]) * 1e3)
    return latencies, time.perf_counter() - start


def open_loop(
    submit, mix: list[Slot], rate: float, seconds: float, limit_ms: float, tally: Tally
) -> dict[str, float]:
    """A fixed schedule of ``rate`` requests a second, sent whatever happens.

    Latency is taken from the time a request was *due*, so the wait a stall
    imposes on later requests counts; ``sched_lag`` is how late the generator
    itself ran.  A failed or late request misses the limit.
    """
    done: queue.SimpleQueue = queue.SimpleQueue()
    total = max(1, int(rate * seconds))
    lags: list[float] = []
    origin = time.perf_counter()
    for index in range(total):
        due = origin + index / rate
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        lags.append((time.perf_counter() - due) * 1e3)
        send(submit, mix[index % len(mix)], index // len(mix), done, wall=False, due=due)
    records = [settle(done, tally) for _ in range(total)]
    latencies = [(r["end"] - r["due"]) * 1e3 for r in records if r is not None]
    within = sum(1 for ms in latencies if ms <= limit_ms)
    return {
        "p50_ms": pct(latencies, 50) if latencies else float("nan"),
        "p95_ms": pct(latencies, 95) if latencies else float("nan"),
        "sched_lag_ms_p95": pct(lags, 95),
        "attainment": within / total,
        "sent": total,
    }


class Serving:
    """A closed-loop serving workload over the eight-slot mix."""

    #: Reported as measured: ten runs of these spread by at most 0.14 where the
    #: library workloads read 0.27, and between rounds a yardstick would share
    #: the GIL with the idle stack's threads, so the program could move it.
    yardstick = None

    def __init__(
        self, seed: int, open_stack: Callable[[], Stack], outstanding: int, per_round: int
    ):
        self.mix = workloads.serving_mix(seed)
        self.open_stack = open_stack
        self.outstanding = outstanding
        self.per_round = per_round
        self.stack: Stack | None = None
        self.digest = workloads.mix_digest(self.mix)

    def setup(self, tally: Tally) -> None:
        """Start the stack; first correct result for every slot of the mix."""
        self.stack = self.open_stack()
        closed_loop(self.stack.submit, self.mix, 1, len(self.mix), tally)

    def measure(self, budget: Budget, tally: Tally) -> dict[str, Any]:
        assert self.stack is not None
        per_round = budget.count(self.per_round, floor=8 * self.outstanding)
        sent = len(self.mix)
        closed_loop(self.stack.submit, self.mix, self.outstanding, per_round // 4, tally, sent)
        sent += per_round // 4
        self.stack.session.reset_stats()
        latencies: list[float] = []
        round_p50, round_rate = [], []
        for _ in rounds(budget):
            lat, wall = closed_loop(
                self.stack.submit, self.mix, self.outstanding, per_round, tally, sent
            )
            sent += per_round
            latencies += lat
            round_p50.append(statistics.median(lat) if lat else float("nan"))
            round_rate.append(len(lat) / wall)
        stats = self.stack.session.stats()
        return {
            "rounds": len(round_rate),
            "samples": len(latencies),
            "op_ms_p50": (statistics.median(latencies), spread(round_p50)),
            "ops_per_s": (statistics.median(round_rate), spread(round_rate)),
            "p95_ms": pct(latencies, 95),
            "p99_ms": pct(latencies, 99),
            "outstanding": self.outstanding,
            "requests_per_round": per_round,
            "session": stats.summary().splitlines(),
        }

    def teardown(self) -> None:
        if self.stack is not None:
            self.stack.close()
            self.stack = None
