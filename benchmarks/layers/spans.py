"""Spans of the traced run: recording, nesting and per-layer self time.

A span is ``{name, start, end, parent, request_id}`` with ``time.time()``
bounds — the clock the program's own spans (``Future.trace()``) use, so the
suite's spans around its calls and the program's spans inside them merge per
request.  Spans stay in memory during the run and are written once at exit.

Nesting is by containment: a span's parent is the smallest span of the same
request that holds it.  A span's *self time* is the part of it that no span
further inside the request covers — for properly nested spans its length minus
its children.  Because a program span may straddle two of the suite's spans (a
``queue.wait`` starts inside ``submit`` and ends long after it), "further
inside" is decided per instant: a program span beats a suite span, and among
spans of one kind the one that started last wins.  The self times of one
request therefore add up to the length of its root: the latency the client saw.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path
from typing import Any

#: Span names -> the layer that owns the time.
LAYER_OF = {
    "suite.request": "client",
    "suite.submit": "client",
    "suite.result": "client",
    "gateway.decode": "gateway",
    "gateway.wait": "gateway",
    "gateway.respond": "gateway",
    "admission.wait": "cluster",
    "queue.dispatch": "cluster",
    "codec.encode": "cluster",
    "ring.transit": "cluster",
    "codec.decode": "cluster",
    "codec.encode_result": "cluster",
    "ring.respond": "cluster",
    "queue.wait": "runtime",
    "execute": "engine",
}
#: Clock reads this close together are the same instant for nesting.
EPSILON_S = 2e-6


class SpanLog:
    """Every span of a traced run, kept in memory until ``write``."""

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self.requests = 0

    def new_request(self) -> int:
        self.requests += 1
        return self.requests - 1

    def add(self, name: str, start: float, end: float, request_id: int) -> None:
        self.spans.append(
            {"name": name, "start": start, "end": end, "parent": None, "request_id": request_id}
        )

    def add_request(self, record: dict[str, Any], trace: Any) -> None:
        """One served request: the suite's spans around ``submit`` and the
        wait for the result, and the program's exported spans between them."""
        request_id = self.new_request()
        self.add("suite.request", record["wall_start"], record["wall_end"], request_id)
        self.add("suite.submit", record["wall_start"], record["wall_submitted"], request_id)
        if record["wall_end"] > record["wall_submitted"]:
            self.add("suite.result", record["wall_submitted"], record["wall_end"], request_id)
        if trace is not None:
            for span in trace.spans():
                self.add(span.name, span.start, span.end, request_id)

    def by_request(self) -> dict[int, list[int]]:
        groups: dict[int, list[int]] = defaultdict(list)
        for position, span in enumerate(self.spans):
            groups[span["request_id"]].append(position)
        return groups

    def resolve_parents(self) -> None:
        """Set each span's ``parent`` to the index of the smallest span of
        its request that contains it (``None`` for a root)."""
        for positions in self.by_request().values():
            # Outermost first: by start, longest first among equal starts.
            ordered = sorted(
                positions, key=lambda p: (self.spans[p]["start"], -self.spans[p]["end"])
            )
            stack: list[int] = []
            for position in ordered:
                span = self.spans[position]
                while stack and not contains(self.spans[stack[-1]], span):
                    stack.pop()
                span["parent"] = stack[-1] if stack else None
                stack.append(position)

    def self_times(self, first: int, last: int) -> dict[int, dict[str, float]]:
        """Per request with ``first <= id < last``: span name -> self seconds.

        Every instant of a request belongs to one covering span: a program
        span before a suite span, then the one that started last (the shorter
        one among equal starts).
        """
        result: dict[int, dict[str, float]] = {}
        for request_id, positions in self.by_request().items():
            if not first <= request_id < last:
                continue
            spans = [self.spans[p] for p in positions]
            edges = sorted({edge for span in spans for edge in (span["start"], span["end"])})
            owned: dict[str, float] = defaultdict(float)
            for low, high in zip(edges, edges[1:]):
                active = [s for s in spans if s["start"] <= low and high <= s["end"]]
                if active:
                    owner = max(active, key=innermost)
                    owned[owner["name"]] += high - low
            result[request_id] = owned
        return result

    def summary(self, first: int = 0, last: int | None = None) -> dict[str, Any]:
        """Self times over the requests with ``first <= id < last``.

        ``self_us`` is the median self time per span name and ``layer_us`` the
        median per layer; ``layer_mean_us`` is the mean per layer, which adds
        up to ``latency_mean_us`` exactly.  ``coverage`` is the median share
        of a request owned by the program's own spans, and ``broken`` the
        share of program spans that are empty or fall outside their request's
        root — what a stepping ``time.time()`` produces.
        """
        last = self.requests if last is None else last
        per_request = self.self_times(first, last)
        roots = {
            span["request_id"]: span
            for span in self.spans
            if first <= span["request_id"] < last and span["name"] == "suite.request"
        }
        per_request = {rid: times for rid, times in per_request.items() if rid in roots}
        if not per_request:
            return {"requests": 0}
        names = sorted({name for times in per_request.values() for name in times})
        layers = sorted({LAYER_OF.get(name, "other") for name in names})
        by_layer = [
            {
                layer: sum(v for name, v in times.items() if LAYER_OF.get(name, "other") == layer)
                for layer in layers
            }
            for times in per_request.values()
        ]
        latencies = [roots[rid]["end"] - roots[rid]["start"] for rid in per_request]
        program = [
            span
            for span in self.spans
            if span["request_id"] in roots and not span["name"].startswith("suite.")
        ]
        broken = sum(
            1
            for span in program
            if span["end"] <= span["start"] or not contains(roots[span["request_id"]], span)
        )
        return {
            "requests": len(per_request),
            "self_us": {
                name: statistics.median(t.get(name, 0.0) for t in per_request.values()) * 1e6
                for name in names
            },
            "layer_us": {
                layer: statistics.median(row[layer] for row in by_layer) * 1e6 for layer in layers
            },
            "layer_mean_us": {
                layer: statistics.mean(row[layer] for row in by_layer) * 1e6 for layer in layers
            },
            "latency_us": statistics.median(latencies) * 1e6,
            "latency_mean_us": statistics.mean(latencies) * 1e6,
            "coverage": statistics.median(
                1.0 - row.get("client", 0.0) / latency
                for row, latency in zip(by_layer, latencies)
                if latency > 0
            ),
            "broken": broken / len(program) if program else 0.0,
        }

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.spans))


def innermost(span: dict[str, Any]) -> tuple:
    return (not span["name"].startswith("suite."), span["start"], -span["end"])


def contains(outer: dict[str, Any], inner: dict[str, Any]) -> bool:
    return (
        outer["start"] - EPSILON_S <= inner["start"] and inner["end"] <= outer["end"] + EPSILON_S
    )
