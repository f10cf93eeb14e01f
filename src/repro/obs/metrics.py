"""A process-wide, thread-safe registry of counters, gauges, and histograms.

Every serving tier (inline, threaded, cluster) and every cross-cutting
subsystem (plan cache, tuner, router, admission control)
increments the *same* process-wide registry, so one ``/metrics`` scrape
answers for the whole process no matter which mix of backends is live.
Three design points keep the hot path cheap and the reads exact:

* **Per-child locks.**  Each metric child (one label combination of one
  family) carries its own :class:`threading.Lock`; an increment touches
  only that lock, never a registry-wide one.  Callers cache the child
  reference at construction time, so the hot path is a dict-free
  lock/add/unlock.
* **Exact totals.**  Increments are taken under the child's lock — a
  deliberate trade of a few tens of nanoseconds for *no lost updates*:
  the concurrency tests hammer one counter from many threads and assert
  the exact total.
* **Monotonic snapshots.**  :meth:`MetricsRegistry.snapshot` and
  :meth:`MetricsRegistry.render_prometheus` read each child under its
  lock, so a reader never observes a torn histogram (count ahead of sum,
  or vice versa).

Metric names follow Prometheus conventions (``repro_*`` prefix,
counters ending ``_total``); :func:`validate_prometheus_text` checks the
text exposition grammar and histogram invariants, and is what the gateway's
``/metrics`` tests run against a live scrape.
"""

from __future__ import annotations

import bisect
import re
import threading
from typing import Any, Iterable, Mapping

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "validate_prometheus_text",
    "DEFAULT_LATENCY_BUCKETS_MS",
    "PROMETHEUS_CONTENT_TYPE",
    "RESILIENCE_METRIC_NAMES",
]

#: Default histogram buckets for request latencies, in milliseconds.
#: Sub-millisecond resolution at the low end (cache-hit serving of small
#: kernels) through multi-second tails (cold compiles under load).
DEFAULT_LATENCY_BUCKETS_MS: tuple[float, ...] = (
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    25.0,
    50.0,
    100.0,
    250.0,
    500.0,
    1000.0,
    2500.0,
    5000.0,
)

#: Metric names the resilience layer registers (deadline enforcement,
#: session retries, failover routing, and crash-loop supervision) — one
#: authoritative list for dashboards and the test suite, so a renamed
#: series cannot silently drop off a Grafana board.
RESILIENCE_METRIC_NAMES: tuple[str, ...] = (
    "repro_deadline_expired_total",
    "repro_retries_total",
    "repro_failover_submits_total",
    "repro_poisoned_requests_total",
    "repro_dead_workers",
)

#: Content type of :meth:`MetricsRegistry.render_prometheus`'s text.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _format_value(value: float) -> str:
    """Render a sample value the way Prometheus text exposition expects."""
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape_label_value(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _render_labels(labels: Mapping[str, str], extra: tuple[tuple[str, str], ...] = ()) -> str:
    items = list(labels.items()) + list(extra)
    if not items:
        return ""
    body = ",".join(f'{name}="{_escape_label_value(str(value))}"' for name, value in items)
    return "{" + body + "}"


class _Scalar:
    """One label combination's number, read and reset under its own lock."""

    def __init__(self, name: str, labels: Mapping[str, str]):
        self.name = name
        self.labels = dict(labels)
        self._lock = threading.Lock()
        self._value = 0.0

    def value(self) -> float:
        """The current value (a consistent read under the child's lock)."""
        with self._lock:
            return self._value

    def _reset(self) -> None:
        with self._lock:
            self._value = 0.0


class Counter(_Scalar):
    """A monotonically increasing counter (one label combination).

    Obtained from :meth:`MetricsRegistry.counter`; hold the reference and
    call :meth:`inc` on the hot path.  Thread-safe and exact: increments
    are taken under a per-counter lock, so N threads incrementing M times
    each always total exactly ``N * M``.
    """

    kind = "counter"

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (default 1) to the counter; must be >= 0."""
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (inc {amount})")
        with self._lock:
            self._value += amount

    def share_lock(self, *others: "Counter") -> threading.Lock:
        """Give ``others`` this counter's lock and return it, for an owner
        to hold around :meth:`add_held` (a racing second call is a no-op)."""
        for other in others:
            other._lock = self._lock
        return self._lock

    def add_held(self, amount: int = 1) -> None:
        """:meth:`inc` under this counter's lock, held by its owner
        (:meth:`share_lock`): one lock, ordered with :meth:`value` and a reset."""
        self._value += amount


class Gauge(_Scalar):
    """A settable instantaneous value (one label combination).

    Used for point-in-time quantities — in-flight requests, worker RSS —
    that go up and down.  Thread-safe via a per-gauge lock.
    """

    kind = "gauge"

    def set(self, value: float) -> None:
        """Replace the gauge's value."""
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (may be negative) to the gauge."""
        with self._lock:
            self._value += amount


class Histogram:
    """A fixed-bucket histogram (one label combination).

    Observations land in pre-sized cumulative-at-render buckets via one
    :func:`bisect.bisect_left` plus a locked increment — no allocation on
    the hot path.  ``buckets`` are the finite upper bounds; a ``+Inf``
    bucket is implicit (and rendered, per the Prometheus contract).
    """

    kind = "histogram"

    def __init__(self, name: str, labels: Mapping[str, str], buckets: Iterable[float]):
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError(f"histogram {name} needs at least one bucket bound")
        self.name = name
        self.labels = dict(labels)
        self.bounds = bounds
        self._lock = threading.Lock()
        self._counts = [0] * (len(bounds) + 1)  # +1: the +Inf bucket
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        index = bisect.bisect_left(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    def snapshot(self) -> dict[str, Any]:
        """A consistent read: count, sum, and cumulative per-``le`` counts."""
        with self._lock:
            counts = list(self._counts)
            total, running = self._count, 0
            cumulative: list[tuple[float, int]] = []
            for bound, count in zip(self.bounds, counts):
                running += count
                cumulative.append((bound, running))
            cumulative.append((float("inf"), total))
            return {"count": total, "sum": self._sum, "buckets": cumulative}

    def _reset(self) -> None:
        with self._lock:
            self._counts = [0] * (len(self.bounds) + 1)
            self._sum = 0.0
            self._count = 0


class _Family:
    """One named metric family: a kind, help text, and its label children."""

    def __init__(self, name: str, kind: str, help: str, buckets: tuple[float, ...] | None):
        self.name = name
        self.kind = kind
        self.help = help
        self.buckets = buckets
        self.children: dict[tuple[tuple[str, str], ...], Any] = {}


class MetricsRegistry:
    """Get-or-create registry of metric families and their label children.

    One process-wide instance (:func:`get_registry`) backs all built-in
    instrumentation; tests construct private registries to assert exact
    totals in isolation.  ``counter`` / ``gauge`` / ``histogram`` return
    the *same* child object for the same (name, labels) forever, so
    call sites resolve their children once and keep the reference.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: dict[str, _Family] = {}

    # -- child resolution ---------------------------------------------------
    def _child(
        self,
        name: str,
        kind: str,
        help: str,
        buckets: tuple[float, ...] | None,
        labels: Mapping[str, str],
    ) -> Any:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in labels:
            if not _LABEL_NAME_RE.match(label):
                raise ValueError(f"invalid label name {label!r} on metric {name!r}")
        key = tuple(sorted((str(k), str(v)) for k, v in labels.items()))
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = _Family(name, kind, help, buckets)
                self._families[name] = family
            elif family.kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {family.kind}, not {kind}"
                )
            child = family.children.get(key)
            if child is None:
                if kind == "histogram":
                    child = Histogram(name, dict(key), family.buckets or buckets or ())
                elif kind == "gauge":
                    child = Gauge(name, dict(key))
                else:
                    child = Counter(name, dict(key))
                family.children[key] = child
            return child

    def counter(self, name: str, help: str = "", **labels: str) -> Counter:
        """The :class:`Counter` child for ``(name, labels)`` (created once).

        Parameters
        ----------
        name:
            Family name; by convention ``repro_*_total``.
        help:
            One-line description, rendered as the ``# HELP`` line.
        **labels:
            Label names and values identifying this child.
        """
        return self._child(name, "counter", help, None, labels)

    def gauge(self, name: str, help: str = "", **labels: str) -> Gauge:
        """The :class:`Gauge` child for ``(name, labels)`` (created once).

        Parameters
        ----------
        name / help / **labels:
            As for :meth:`counter`.
        """
        return self._child(name, "gauge", help, None, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS_MS,
        **labels: str,
    ) -> Histogram:
        """The :class:`Histogram` child for ``(name, labels)`` (created once).

        Parameters
        ----------
        name / help / **labels:
            As for :meth:`counter`.
        buckets:
            Finite upper bounds; the family's first registration wins, so
            every child of one family shares one bucket layout.
        """
        return self._child(name, "histogram", help, tuple(float(b) for b in buckets), labels)

    # -- reads ----------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """The whole registry as a nested, JSON-serializable dict.

        ``{family: {"kind", "help", "series": [{"labels", ...values}]}}``;
        counters and gauges carry ``"value"``, histograms carry
        ``"count"`` / ``"sum"`` / ``"buckets"``.  Each child is read under
        its own lock, so every individual series is internally consistent.
        """
        with self._lock:
            families = [
                (family.name, family.kind, family.help, list(family.children.values()))
                for family in self._families.values()
            ]
        tree: dict[str, Any] = {}
        for name, kind, help, children in sorted(families):
            series = []
            for child in children:
                entry: dict[str, Any] = {"labels": dict(child.labels)}
                if kind == "histogram":
                    entry.update(child.snapshot())
                    entry["buckets"] = [
                        [bound, count] for bound, count in entry["buckets"]
                    ]
                else:
                    entry["value"] = child.value()
                series.append(entry)
            series.sort(key=lambda entry: sorted(entry["labels"].items()))
            tree[name] = {"kind": kind, "help": help, "series": series}
        return tree

    def render_prometheus(self) -> str:
        """The registry in Prometheus text exposition format (version 0.0.4)."""
        lines: list[str] = []
        for name, family in sorted(self.snapshot().items()):
            if family["help"]:
                lines.append(f"# HELP {name} {family['help']}")
            lines.append(f"# TYPE {name} {family['kind']}")
            for entry in family["series"]:
                labels = entry["labels"]
                if family["kind"] == "histogram":
                    for bound, count in entry["buckets"]:
                        le = _render_labels(labels, (("le", _format_value(bound)),))
                        lines.append(f"{name}_bucket{le} {count}")
                    lines.append(f"{name}_sum{_render_labels(labels)} "
                                 f"{_format_value(entry['sum'])}")
                    lines.append(f"{name}_count{_render_labels(labels)} {entry['count']}")
                else:
                    lines.append(
                        f"{name}{_render_labels(labels)} {_format_value(entry['value'])}"
                    )
        return "\n".join(lines) + "\n"

    def reset(self) -> None:
        """Zero every child (tests and fresh measurement windows)."""
        with self._lock:
            children = [
                child
                for family in self._families.values()
                for child in family.children.values()
            ]
        for child in children:
            child._reset()


# ---------------------------------------------------------------------------
# Exposition-format validation (used by the scrape tests)
# ---------------------------------------------------------------------------
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>[^\s]+)(?:\s+\d+)?$"
)
_LABEL_PAIR_RE = re.compile(r'^[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"$')


def _base_name(sample_name: str, typed: Mapping[str, str]) -> str:
    """Map a histogram's ``_bucket``/``_sum``/``_count`` sample to its family."""
    for suffix in ("_bucket", "_sum", "_count"):
        if sample_name.endswith(suffix):
            candidate = sample_name[: -len(suffix)]
            if typed.get(candidate) == "histogram":
                return candidate
    return sample_name


def validate_prometheus_text(text: str) -> list[str]:
    """Check Prometheus text exposition; returns a list of problems.

    An empty list means the text parses: every sample line matches the
    grammar, every sample's family has a preceding ``# TYPE``, label
    pairs are well-formed, values are floats, and every histogram series
    has a ``+Inf`` bucket with non-decreasing cumulative counts matching
    its ``_count``.  Used by the ops-endpoint tests and the gateway
    replay's mid-replay scrape, which fail on any returned problem.

    Parameters
    ----------
    text:
        The body served by ``/metrics``.
    """
    problems: list[str] = []
    typed: dict[str, str] = {}
    histograms: dict[tuple[str, str], dict[str, Any]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 3 and parts[1] == "TYPE":
                if parts[3:] and parts[3] not in ("counter", "gauge", "histogram", "summary",
                                                  "untyped"):
                    problems.append(f"line {lineno}: unknown TYPE {parts[3]!r}")
                typed[parts[2]] = parts[3] if len(parts) > 3 else "untyped"
            elif len(parts) >= 2 and parts[1] not in ("HELP", "TYPE"):
                problems.append(f"line {lineno}: unknown comment directive {parts[1]!r}")
            continue
        match = _SAMPLE_RE.match(line)
        if not match:
            problems.append(f"line {lineno}: unparsable sample {line!r}")
            continue
        name, raw_labels, raw_value = match.group("name", "labels", "value")
        labels: dict[str, str] = {}
        if raw_labels:
            for pair in _split_label_pairs(raw_labels):
                if not _LABEL_PAIR_RE.match(pair):
                    problems.append(f"line {lineno}: malformed label pair {pair!r}")
                    continue
                key, value = pair.split("=", 1)
                labels[key] = value[1:-1]
        try:
            value = float(raw_value.replace("+Inf", "inf").replace("-Inf", "-inf"))
        except ValueError:
            problems.append(f"line {lineno}: non-numeric value {raw_value!r}")
            continue
        family = _base_name(name, typed)
        if family not in typed:
            problems.append(f"line {lineno}: sample {name!r} has no preceding # TYPE")
            continue
        if typed[family] == "histogram":
            series_key = (family, _series_identity(labels))
            series = histograms.setdefault(series_key, {"buckets": [], "sum": None,
                                                        "count": None})
            if name.endswith("_bucket"):
                le = labels.get("le")
                if le is None:
                    problems.append(f"line {lineno}: histogram bucket without le label")
                else:
                    series["buckets"].append((le, value))
            elif name.endswith("_sum"):
                series["sum"] = value
            elif name.endswith("_count"):
                series["count"] = value
    for (family, _), series in sorted(histograms.items()):
        bounds = []
        for le, _count in series["buckets"]:
            try:
                bounds.append(float(le.replace("+Inf", "inf")))
            except ValueError:
                problems.append(f"histogram {family}: non-numeric le {le!r}")
        counts = [count for _le, count in series["buckets"]]
        if float("inf") not in bounds:
            problems.append(f"histogram {family}: missing +Inf bucket")
        if any(b > a for a, b in zip(counts[1:], counts)):
            problems.append(f"histogram {family}: bucket counts decrease")
        if series["count"] is None or series["sum"] is None:
            problems.append(f"histogram {family}: missing _sum or _count")
        elif counts and counts[-1] != series["count"]:
            problems.append(
                f"histogram {family}: +Inf bucket {counts[-1]} != _count {series['count']}"
            )
    return problems


def _series_identity(labels: Mapping[str, str]) -> str:
    return ",".join(f"{k}={v}" for k, v in sorted(labels.items()) if k != "le")


def _split_label_pairs(raw: str) -> list[str]:
    """Split ``a="x",b="y"`` at commas outside quoted values."""
    pairs, current, in_quotes, escaped = [], [], False, False
    for char in raw:
        if escaped:
            current.append(char)
            escaped = False
            continue
        if char == "\\" and in_quotes:
            current.append(char)
            escaped = True
            continue
        if char == '"':
            in_quotes = not in_quotes
        if char == "," and not in_quotes:
            pairs.append("".join(current))
            current = []
            continue
        current.append(char)
    if current:
        pairs.append("".join(current))
    return pairs


# ---------------------------------------------------------------------------
# The process-wide registry
# ---------------------------------------------------------------------------
_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide registry every built-in instrumentation site uses."""
    return _REGISTRY


def _reinit_after_fork() -> None:
    """Re-arm every registry lock in a forked child (see cluster.worker)."""
    _REGISTRY._lock = threading.Lock()
    for family in _REGISTRY._families.values():
        for child in family.children.values():
            child._lock = threading.Lock()
