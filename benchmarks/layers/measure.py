"""Measurement primitives shared by every workload and probe.

Round structure, order statistics, the correctness tally, cache clearing and
resource readings.  Nothing here knows a workload.
"""

from __future__ import annotations

import math
import os
import resource
import signal
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

from repro import clear_plan_cache
from repro.engine import clear_derived_cache, clear_path_cache
from repro.tuner import clear_decision_cache

from workloads import matches

#: A timed loop never reports from fewer rounds than this.
MIN_ROUNDS = 5


@dataclass
class Budget:
    """How much one run measures.

    ``seconds`` bounds the timed rounds; ``rounds`` (when set) replaces the
    clock with an exact count, which makes the number of operations
    attempted repeat exactly — ``--quick`` and the self-check use it.
    ``scale`` multiplies per-round request counts and probe repetitions.
    """

    seconds: float = 10.0
    rounds: int | None = None
    setup_cycles: int = 5
    scale: float = 1.0

    def count(self, base: int, floor: int = 1) -> int:
        return max(floor, round(base * self.scale))


def rounds(budget: Budget) -> Iterator[int]:
    """Round indices: exactly ``budget.rounds``, or at least ``MIN_ROUNDS``
    and then as many as are predicted to end inside ``budget.seconds``."""
    start = time.perf_counter()
    index = 0
    while True:
        if budget.rounds is not None:
            if index >= budget.rounds:
                return
        elif index >= MIN_ROUNDS:
            elapsed = time.perf_counter() - start
            if elapsed * (index + 1) / index > budget.seconds:
                return
        yield index
        index += 1


@dataclass
class Tally:
    """Operations attempted and failed; wrong against the oracle is failed."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def fail(self, label: str, reason: str) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.notes) < 10:
            self.notes.append(f"{label}: {reason}")

    def check(self, label: str, result: Any, oracle: np.ndarray, single: bool) -> bool:
        """Count one finished operation; called after its timestamp is taken."""
        if matches(result, oracle, single):
            self.attempted += 1
            return True
        self.fail(label, "result differs from the dense oracle")
        return False

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def timed_ms(call: Callable[[], Any]) -> tuple[float, Any]:
    start = time.perf_counter()
    result = call()
    return (time.perf_counter() - start) * 1e3, result


def median_ms(call: Callable[[], Any], reps: int) -> float:
    return statistics.median(timed_ms(call)[0] for _ in range(reps))


def pct(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def geomean(values) -> float:
    values = [max(float(v), 1e-12) for v in values]
    return math.exp(sum(math.log(v) for v in values) / len(values))


def spread(values) -> float:
    """Distance between the quartiles as a share of the median."""
    values = [float(v) for v in values]
    if len(values) < 2:
        return 0.0
    low, mid, high = statistics.quantiles(values, n=4)
    return (high - low) / mid if mid else 0.0


def clear_caches() -> None:
    """The four process-wide caches a cold start does not have."""
    clear_plan_cache()
    clear_path_cache()
    clear_derived_cache()
    clear_decision_cache()


#: About what the yardstick reads between the cases of a library workload on
#: the 2-core host this benchmark was written on.  It only fixes the unit of a
#: host-normalised timing (ms at that speed); it cancels whenever two runs of
#: this benchmark are compared, so it is never re-measured.
YARDSTICK_REFERENCE_MS = 2.0


class Yardstick:
    """A fixed piece of work that tells how fast the host is right now.

    The shared host's speed for single-threaded ``numpy`` work drifts by 30%
    over minutes, more than any bound.  The library workloads call this
    between their cases, in the same rounds, and scale each round's timings
    by ``YARDSTICK_REFERENCE_MS`` / the round's median yardstick reading.  It
    does what the engine's executor does — a gather, a small matmul, an
    elementwise product, a segment sum and a stretch of interpreter — on
    arrays of its own, always the same, with nothing from ``src/``: a change
    to the program cannot move it.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)  # not the run's seed: the same work in every run
        self.table = rng.standard_normal((8192, 32))
        self.rows = rng.integers(0, 8192, 8192)
        self.weight = rng.standard_normal((32, 32))

    def work(self) -> float:
        gathered = self.table[self.rows]
        mixed = gathered @ self.weight
        summed = (gathered * mixed).reshape(-1, 8, 32).sum(axis=1)
        total = 0.0
        for value in summed[:, 0].tolist():
            total += abs(value)
        return total

    def __call__(self) -> float:
        """The milliseconds the work takes, read on its second pass: the
        first refills the caches, so that what the program's last call left
        in them (which a change to the program alters) is not in the reading."""
        self.work()
        return timed_ms(self.work)[0]


def host_scale(yardstick_ms: list[float]) -> float:
    """The factor that turns timings taken beside these yardstick readings
    into timings at the reference host speed."""
    return YARDSTICK_REFERENCE_MS / statistics.median(yardstick_ms)


def process_table() -> dict[int, tuple[str, int]]:
    """``pid -> (state, parent pid)`` of every process, from ``/proc``."""
    table = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                stat = Path("/proc", entry, "stat").read_text()
            except OSError:
                continue  # ended while we were listing
            state, parent = stat.rsplit(")", 1)[1].split()[:2]
            table[int(entry)] = (state, int(parent))
    return table


def descendants() -> list[int]:
    """Every process started under this one, children before grandchildren."""
    table = process_table()
    found = [os.getpid()]
    for above in found:
        found += [pid for pid, (_, parent) in table.items() if parent == above]
    return found[1:]


def stop_processes(pids: list[int], grace_s: float) -> list[int]:
    """SIGTERM ``pids``, SIGKILL what is left after ``grace_s``, and wait
    until each has ended.  Returns the pids a signal reached."""
    reached: list[int] = []
    left = list(pids)
    for sent in (signal.SIGTERM, signal.SIGKILL):
        for pid in left:
            try:
                os.kill(pid, sent)
                reached.append(pid)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + grace_s
        while left and (sent == signal.SIGKILL or time.monotonic() < deadline):
            time.sleep(0.01)
            table = process_table()
            for pid in list(left):
                state, parent = table.get(pid, ("gone", 0))
                if parent == os.getpid():
                    try:  # a child of ours stays in the table until it is waited for
                        if os.waitpid(pid, os.WNOHANG)[0] == pid:
                            state = "gone"
                    except ChildProcessError:
                        state = "gone"  # multiprocessing reaped it first
                if state in ("gone", "Z"):
                    left.remove(pid)
    return sorted(set(reached))


def stop_children(grace_s: float = 5.0) -> list[int]:
    """Stop every process this one started and wait until each has ended.

    Called on every path out of a run.  A closed cluster session has already
    joined its workers, but ``multiprocessing``'s resource tracker, started
    beside the first shared-memory ring, ends only when it reads end-of-file
    on our pipe: left alone it outlives this process by a moment, and whoever
    looks right after we exit finds it running.  Whatever else is still there
    (workers of a stack an exception skipped closing) is signalled first: a
    forked worker holds a copy of that pipe, and the tracker, which unlinks
    the rings such workers leave, sees end-of-file only when the last copy is
    closed.  Returns the pids that had to be signalled.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    tracker_pid = getattr(tracker, "_pid", None)
    stopped = stop_processes([pid for pid in descendants() if pid != tracker_pid], grace_s)
    try:
        tracker._stop()  # closes our end of the pipe and waits for the tracker
    except (AttributeError, OSError):
        pass
    return stopped + stop_processes(descendants(), grace_s)


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process plus its reaped children, in MB."""
    kib = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    return kib / 1024.0
