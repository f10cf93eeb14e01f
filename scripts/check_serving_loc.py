#!/usr/bin/env python
"""Line and option budgets for the serving stack (ROADMAP aim 2: tracked numbers).

Prints ``wc -l`` per serving package — ``cluster``, ``gateway``,
``serve``, ``runtime``, ``obs``, ``resilience`` under ``src/repro`` —
the packages with a budget of their own (``engine``, ``tuner``, and
``cluster``, the largest serving package),
and the number of config fields (``ServeConfig`` + ``InductorConfig`` +
``GatewayConfig``: every independently settable option).  Exits 1 when
the serving total exceeds :data:`CEILING`, a budgeted package exceeds
its entry in :data:`PACKAGE_CEILINGS`, or the field count exceeds
:data:`OPTIONS_CEILING`.  Each ceiling is the size it had when it was
last lowered; a PR that shrinks the code lowers it in the same commit,
and a PR that needs to raise it has to say why in review.

Run from the repository root (no dependencies — fields are counted with
``ast``, nothing is imported)::

    python scripts/check_serving_loc.py
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGES = ("cluster", "gateway", "serve", "runtime", "obs", "resilience")

#: Total lines with one lock per memo hit: 8,870, +7 in ``runtime/``
#: (memos of one name take one lock, their registry counters' own, and
#: count under it) and -3 in ``obs/`` (``Counter.share_lock`` and
#: ``add_held``; ``Counter`` and ``Gauge`` share one base and the unused
#: ``Gauge.dec`` is deleted), made up by -6 in ``cluster/`` (the unused
#: ``ShmRing.used_bytes`` deleted).
#: Total lines with one memo: 8,872, -20 in ``runtime/`` (``PlanCache`` became
#: ``BoundedMemo``, the one counted LRU, and the executor's lock went with its
#: unbounded tables) and -3 in ``cluster/`` (one call re-arms every memo's lock).
#: Total lines with one tier core and one request per turn: 8,895 (``ClusterServer`` on it).
#: Total lines with one call per request: 8,979 (the coalescer left ``runtime/``).
#: With reentrant operators: 9,179, -16 in ``runtime/server.py``
#: (``_OperatorSlot`` and its per-call lock deleted) and -2 in ``cluster/``
#: (the fork reset of the path cache's lock, gone with the lock).
#: With the caller dispatching: 9,195, -68 once ``submit`` routed,
#: encoded and sent on the calling thread under one send lock per worker
#: incarnation (``cluster/`` 2,487 -> 2,435: the dispatcher thread, its queue
#: and the monitor's deadline sweep deleted) and ``Session.asettled`` became
#: the one async bridge (``gateway/`` -33 without its inlined copy, ``serve/``
#: +17).
#: With the plan key on the frozen three-switch ``InductorConfig``:
#: 9,263, -1 in ``runtime/plan_cache.py`` (``None`` keys as the default
#: config; the tile-dict sort went with the config's tile field).
#: With one batch routine for every tier: 9,264, -64 once the
#: inline backend became the routine's class in ``runtime/server.py``
#: (``serve/backend.py`` 168 -> 81), a cluster worker called it on its main
#: thread (no inner threaded server, thread or ``SimpleQueue``) and the
#: executor left ``format="auto"`` to its ``SparseEinsum``.
#: With one pipe per worker incarnation: 9,328, -40 in
#: ``cluster/`` (2,529 -> 2,489) once each worker's two
#: ``multiprocessing.Queue``s, their feeder threads, the collector's poll and
#: ``ring_lock`` gave way to one duplex pipe read to EOF, net of the
#: construction fix that tears down the workers a failed constructor started.
#: With the gateway's own HTTP exchange: 9,368, +49 in
#: ``gateway/`` (1,968 -> 2,017) for the client's keep-alive connection
#: (``client._Connection``: one ``sendmsg`` per request, one head parse per
#: reply) and the head parser both ends share (``wire.parse_head``), which
#: replace ``http.client`` and a ``readline()`` per header line;
#: ``serve_gateway_cluster`` ``ops_per_s`` +14% in the median of ten
#: alternating pairs (10/10), the client thread's CPU -28 to -30%.
#: With one index check, the executor's: 9,319 once the
#: bounds-check option left ``RequestExecutor``, ``InsumServer``,
#: ``ClusterServer``, ``ServeConfig`` and the plan key.  With one HTTP loop
#: (the gateway serves ``/metrics`` and ``/v1/statsz``; the stdlib ops server
#: is deleted), 9,344 once coalesced
#: results were verified bit for bit and ``GatewayClient.config``, replay's
#: probe for an uncoalesced backend, went; 9,357 before.  9,557 once the plan
#: key lost its per-regime bucket; 9,563 once the ``tune`` option left
#: every tier (the tuner's model decides alone); 9,583 with one stats
#: report and one serving window for every tier (three stats modules
#: 497 -> `runtime/stats.py` 259; the
#: cluster's hand-copied window and the worker stats round trip deleted,
#: `cluster/server.py` 1,232 -> 1,130); 9,984 before that, 10,112 and
#: 10,102 earlier, 10,547, 10,556, and 10,867 at the start.
CEILING = 8870

#: ``cluster`` 2,318 without the unused ``ShmRing.used_bytes``.
#: ``tuner`` 723 once its decision cache is a ``BoundedMemo`` (``DecisionCache``, a
#: copy of the plan cache's LRU, deleted); ``cluster`` 2,324 with one fork re-arm.
#: ``engine`` 1,959 without the path memo; ``cluster`` 2,327 on ``TierCore``, with no drain.
#: Packages with a line budget of their own; ``engine`` 2,004, ``cluster`` 2,422 with no coalescer.
#: ``cluster`` is 2,433 with
#: reentrant operators, 2,435 with the caller dispatching: the largest serving
#: package, budgeted so it cannot grow back unnoticed under the serving total.
#: ``engine`` is 2,193 with the fused dense-reduction update (``FMA`` and
#: ``FUSED`` in ``emit._TILED``, +13 lines, made up by tighter docstrings in
#: ``engine/__init__.py``, ``coalesce.py`` and ``specialize.py`` and two unused
#: re-exports; ``kernel_indirect`` -28%); 2,196 with the pinned call (``Emitted.pin`` in place of
#: ``Emitted.operands``, the cheaper pointer read; +36 lines, made up by the
#: path memo on ``functools.lru_cache`` and a plainer ``coalesce.py``;
#: ``kernel_spmm`` -21%); 2,200 with ``emit.compiles()``, the once-per-process compile
#: verdict the tuner's rule reads in place of three calibration probe kernels
#: (+15 lines against the tuner's -537); 2,185 with the operand placement
#: rule (``emit._placed``, the reuse test in ``emit.emit`` and its measured break-even, ``describe()``
#: naming the operands; +43 lines, 34 of them made up by the merged copy
#: path and tighter module docstrings; ``kernel_spmm`` -14%); 2,176 with the
#: SpMM family's run loop (the run branch of
#: ``emit._source``, +79 lines for ``kernel_spmm`` -32%); 2,097 with the FX
#: interpreter's last callers on the step list, 2,100 (the ROADMAP's budget)
#: before that.  ``tuner`` is 795 with the calibrated cost model and its
#: microbenchmarks replaced by the Section 4.2 rule (``calibration.py`` 331
#: and ``cost_model.py`` 213 deleted); 1,332 with the schedule hint deleted
#: (1,401 before, 1,517 with measured tuning).
PACKAGE_CEILINGS = {"engine": 1959, "tuner": 723, "cluster": 2318}

#: The config dataclasses whose fields are the stack's options.
CONFIG_CLASSES = {
    "serve/config.py": "ServeConfig",
    "core/inductor/config.py": "InductorConfig",
    "gateway/config.py": "GatewayConfig",
}

#: Config fields: 30 with ``ServeConfig.coalesce`` deleted (every request is one call).
#: 31 with ``InductorConfig`` down to the three Section 6.6
#: switches (20 + 3 + 8: the value dtype, explicit tiles and simulated device
#: steer only the GPU model and are arguments of ``CompiledInsum.price``); 34
#: with the bounds-check field of ``ServeConfig`` deleted (the executor checks
#: every index it loads, so there is no pre-execution scan to turn off); 35
#: with ``ServeConfig.tune`` deleted; 36 when the executor's memory bound
#: became the ``_WINDOW_BYTES`` constant, 37 and 47 before it.
OPTIONS_CEILING = 30


def package_lines(root: Path, packages=PACKAGES) -> dict[str, int]:
    """Lines (``wc -l``: newline count) of ``*.py`` directly in each package."""
    return {
        package: sum(
            path.read_bytes().count(b"\n") for path in sorted((root / package).glob("*.py"))
        )
        for package in packages
    }


def config_fields(root: Path) -> dict[str, int]:
    """Annotated assignments in the body of each config dataclass."""
    counts = {}
    for relative, name in CONFIG_CLASSES.items():
        tree = ast.parse((root / relative).read_text())
        (cls,) = [
            node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == name
        ]
        counts[name] = sum(isinstance(node, ast.AnnAssign) for node in cls.body)
    return counts


def main() -> int:
    root = Path(__file__).resolve().parent.parent / "src" / "repro"
    counts = package_lines(root)
    total = sum(counts.values())
    for package, lines in counts.items():
        print(f"{lines:7d}  src/repro/{package}")
    print(f"{total:7d}  total (ceiling {CEILING})")
    budgeted = package_lines(root, PACKAGE_CEILINGS)
    for package, lines in budgeted.items():
        print(f"{lines:7d}  src/repro/{package} (ceiling {PACKAGE_CEILINGS[package]})")
    fields = config_fields(root)
    options = sum(fields.values())
    breakdown = " + ".join(f"{name} {count}" for name, count in fields.items())
    print(f"{options:7d}  config fields: {breakdown} (ceiling {OPTIONS_CEILING})")
    status = 0
    if total > CEILING:
        print(
            f"serving stack grew past its ceiling by {total - CEILING} lines",
            file=sys.stderr,
        )
        status = 1
    for package, lines in budgeted.items():
        if lines > PACKAGE_CEILINGS[package]:
            print(
                f"src/repro/{package} grew past its ceiling by "
                f"{lines - PACKAGE_CEILINGS[package]} lines",
                file=sys.stderr,
            )
            status = 1
    if options > OPTIONS_CEILING:
        print(
            f"config fields grew past their ceiling by {options - OPTIONS_CEILING}: "
            "an option needs a workload or test that sets it on purpose",
            file=sys.stderr,
        )
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
