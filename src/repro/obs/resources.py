"""Per-process resource accounting from ``/proc`` (no psutil dependency).

The cluster monitor thread samples each worker's resident set size and
accumulated CPU time about once a second, publishing them as gauges
(``repro_worker_rss_bytes`` / ``repro_worker_cpu_seconds``) and through
``/v1/healthz``.  Reading two small ``/proc/<pid>`` files is cheap enough
to do inline on the monitor cadence and needs no third-party package.

On platforms without ``/proc`` (macOS, Windows) :func:`sample_process`
returns None and every consumer degrades gracefully — health reports
simply omit the resource fields.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

__all__ = ["ProcessSample", "sample_process", "cpu_percent_between"]


def _sysconf(name: str, default: int) -> int:
    try:
        value = os.sysconf(name)
        return int(value) if value > 0 else default
    except (AttributeError, OSError, ValueError):
        return default


_PAGE_SIZE = _sysconf("SC_PAGESIZE", 4096)
_CLK_TCK = _sysconf("SC_CLK_TCK", 100)


@dataclass(frozen=True)
class ProcessSample:
    """One point-in-time resource reading of a process.

    ``cpu_seconds`` is cumulative (user + system) since process start;
    diff two samples with :func:`cpu_percent_between` for a utilisation
    percentage over the interval.
    """

    pid: int
    rss_bytes: int
    cpu_seconds: float
    sampled_at: float

    def as_dict(self) -> dict:
        """A JSON-ready view (for ``/v1/healthz`` payloads)."""
        return {
            "pid": self.pid,
            "rss_bytes": self.rss_bytes,
            "cpu_seconds": round(self.cpu_seconds, 3),
        }


def sample_process(pid: int) -> ProcessSample | None:
    """Read RSS and cumulative CPU of ``pid`` from ``/proc``.

    Returns None when the process is gone or the platform has no
    ``/proc`` — callers must treat a missing sample as "unknown", not
    zero.

    Parameters
    ----------
    pid:
        The process to sample (the caller's own pid works too).
    """
    try:
        with open(f"/proc/{pid}/statm", "rb") as handle:
            statm = handle.read().split()
        with open(f"/proc/{pid}/stat", "rb") as handle:
            stat = handle.read()
    except OSError:
        return None
    try:
        rss_pages = int(statm[1])
        # Field 2 (comm) may contain spaces/parens; everything after the
        # closing paren is space-separated, with utime/stime at relative
        # positions 11/12 (absolute fields 14/15).
        after_comm = stat.rsplit(b")", 1)[1].split()
        utime_ticks = int(after_comm[11])
        stime_ticks = int(after_comm[12])
    except (IndexError, ValueError):
        return None
    return ProcessSample(
        pid=pid,
        rss_bytes=rss_pages * _PAGE_SIZE,
        cpu_seconds=(utime_ticks + stime_ticks) / _CLK_TCK,
        sampled_at=time.time(),
    )


def cpu_percent_between(earlier: ProcessSample | None, later: ProcessSample | None) -> float:
    """CPU utilisation (percent of one core) between two samples.

    Parameters
    ----------
    earlier / later:
        Two samples of the same pid; 0.0 when either is missing or the
        interval is degenerate.
    """
    if earlier is None or later is None or later.pid != earlier.pid:
        return 0.0
    interval = later.sampled_at - earlier.sampled_at
    if interval <= 0:
        return 0.0
    return max(0.0, 100.0 * (later.cpu_seconds - earlier.cpu_seconds) / interval)
