"""Affinity routing: same expression + pattern, same worker — until hot.

Worker-side performance depends on locality: the worker's pattern /
stable-array / plan caches, and the operator memo that makes a reused
call cost its kernel, only pay off when the traffic that warmed them keeps
arriving at the same process.  The router therefore assigns each affinity
key — the expression plus the pattern fingerprints of its sparse operands —
to one worker, sticky for the key's lifetime, choosing the least-loaded
worker at first sight so distinct keys spread across the pool.

Stickiness alone would starve the pool on a *single-key* workload —
exactly the one-expression raw indirect Einsum traffic this package
targets, where every request shares the affinity key and would pin one
worker while the rest idle.  So a key **spills**: once the least-loaded
of its assigned workers has ``spill_threshold`` requests outstanding
while some unassigned worker sits at half that or less, the idler worker
is added to the key's assignment (sticky too, so its caches warm
there).  Under light traffic a key stays on one worker's warm caches;
under saturation it grows onto the pool worker by worker.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any

import numpy as np

from repro.engine.fingerprint import array_token
from repro.formats.base import SparseFormat
from repro.obs.metrics import get_registry

#: Outstanding requests on a key's best worker before the key may spill.
SPILL_THRESHOLD = 8

#: Sticky assignments kept (LRU beyond this).  Affinity keys embed value
#: array identity tokens, so clients that rebuild formats per request
#: mint fresh keys indefinitely; evicting an assignment only forgets
#: stickiness — the key simply re-routes least-loaded at next sight.
ASSIGNMENT_CAPACITY = 4096


def affinity_key(expression: str, operands: dict[str, Any]) -> tuple:
    """The routing key: expression + per-operand pattern fingerprints.

    Sparse operands contribute their pattern fingerprint plus the
    identity of their value array (two requests over the very same
    format instance — the warm-cache sweet spot — share a key).
    Requests without sparse operands key on the expression alone, which
    still concentrates one raw indirect Einsum's repeated metadata
    arrays on one worker's stable-array cache (spilling spreads the key
    once that worker saturates).
    """
    fingerprints = []
    for name, value in sorted(operands.items()):
        if isinstance(value, SparseFormat):
            values = getattr(value, "values", None)
            token = array_token(values) if isinstance(values, np.ndarray) else None
            fingerprints.append((name, value.fingerprint(), token))
    return (expression, tuple(fingerprints))


class Router:
    """Sticky least-loaded assignment of affinity keys to worker sets.

    Thread-safe: submitting threads route while the health monitor
    forgets a crashed worker's assignments, so the table is lock-guarded.
    """

    def __init__(
        self,
        num_workers: int,
        spill_threshold: int = SPILL_THRESHOLD,
        max_keys: int = ASSIGNMENT_CAPACITY,
    ):
        self.num_workers = num_workers
        self.spill_threshold = spill_threshold
        self.max_keys = max_keys
        self._assignment: OrderedDict[tuple, list[int]] = OrderedDict()
        self._dead: set[int] = set()
        self._lock = threading.Lock()
        self._m_spills = get_registry().counter(
            "repro_router_spills_total",
            "Affinity keys spread onto an additional worker under load.",
        )

    def route(self, key: tuple, load: list[int], exclude: int | None = None) -> int:
        """The worker for ``key``; first sight picks the least-loaded worker.

        Parameters
        ----------
        key:
            An :func:`affinity_key`.
        load:
            Current outstanding-request count per worker (index-aligned).
        exclude:
            A worker id to avoid (requeue after its crash); the key is
            reassigned when it was only routed there.
        """
        with self._lock:
            if key in self._assignment:
                self._assignment.move_to_end(key)
            dead = self._dead
            assigned = [
                w for w in self._assignment.get(key, []) if w != exclude and w not in dead
            ]
            if not assigned:
                candidates = [
                    w for w in range(self.num_workers) if w != exclude and w not in dead
                ]
                if not candidates:
                    candidates = [w for w in range(self.num_workers) if w not in dead]
                if not candidates:
                    candidates = list(range(self.num_workers))
                worker = min(candidates, key=lambda w: (load[w], w))
                self._assignment[key] = [worker]
                while len(self._assignment) > self.max_keys:
                    self._assignment.popitem(last=False)
                return worker
            best = min(assigned, key=lambda w: (load[w], w))
            if load[best] < self.spill_threshold:
                return best
            others = [
                w
                for w in range(self.num_workers)
                if w != exclude and w not in assigned and w not in dead
            ]
            if not others:
                return best
            spill = min(others, key=lambda w: (load[w], w))
            if 2 * load[spill] > load[best]:
                return best  # nobody meaningfully idler — stay local
            self._assignment[key].append(spill)
            self._m_spills.inc()
            return spill

    def forget_worker(self, worker_id: int) -> None:
        """Drop every assignment to ``worker_id`` (its caches are gone)."""
        with self._lock:
            empty = []
            for key, workers in self._assignment.items():
                if worker_id in workers:
                    workers.remove(worker_id)
                    if not workers:
                        empty.append(key)
            for key in empty:
                del self._assignment[key]

    def mark_dead(self, worker_id: int) -> None:
        """Permanently exclude a budget-exhausted worker from routing.

        Drops the worker's sticky assignments and bars it from every
        future ``route`` decision (assignment, spill, or requeue target)
        — the slot will never serve again, so sending it work would
        strand requests.

        Parameters
        ----------
        worker_id:
            The slot whose restart budget is exhausted.
        """
        with self._lock:
            self._dead.add(worker_id)
        self.forget_worker(worker_id)

    @property
    def dead_workers(self) -> tuple[int, ...]:
        """Sorted worker ids permanently excluded from routing."""
        with self._lock:
            return tuple(sorted(self._dead))
