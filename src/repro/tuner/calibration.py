"""Microbenchmark calibration of the tuner's cost constants.

The analytical cost model prices a candidate format in *primitive
operations* — indirect gathers, scatter-adds, scalar multiply-accumulates,
and contiguous (block/matmul) multiply-accumulates.  Rather than hard-code
per-operation costs, they are **measured once per process** with
:class:`repro.utils.timing.Timer` microbenchmarks over exactly what the
fused executor (:mod:`repro.engine.specialize`) runs on one of its
cache-sized windows: ``np.take`` of rows, the batched vector–matrix
``np.matmul`` over runs of equal targets, the block ``np.matmul``, and the
disjoint fancy store of the run sums — the AraOS-style "calibrate the model
from the hardware you are on" approach (PAPERS.md).  Those are the step
list's primitives.  Where this machine compiles plans to C
(:mod:`repro.engine.emit`) every candidate runs one emitted loop nest instead,
and the probe times the code that runs: it builds the real GroupCOO kernel on
the probe's stream and the real BlockGroupCOO kernel on its tiles — no gather
pass, no stored row per run, no per-window dispatch, so ``flop_ns`` and
``block_flop_ns`` are those loops' whole cost per multiply or add and
``emitted`` records it.  Only the probes of the executor that runs are timed:
a machine that compiles measures no step-list constant.

The row gather (step list) and the GroupCOO loop nest (emitted) also run at a
second, narrower width: the part of their time that does not shrink with the
width is paid per stored unit — its index loads and per-unit loop work — and
``unit_ns`` prices it.  It is what separates candidates doing equally many
multiply-adds, such as block shapes tiling the same nonzeros or, on the step
list, COO (two index loads a nonzero) against GroupCOO (``1 + 1/g`` a slot) on
evenly filled rows.

A fresh process used to read ``gather_ns`` / ``block_flop_ns`` 2-4x high: every
window's temporaries were pages mapped anew.  The probes write into buffers
allocated once, and one untimed pass over every probe runs before the timed
ones (faulting those pages in and warming the caches).

Calibration takes about 10 ms where plans compile and 15 ms on the step list.  The constants can be
persisted as JSON (``save`` / ``load``); set the ``REPRO_TUNER_CALIBRATION``
environment variable to a file path to persist across processes — the
calibration is loaded from the file when present and written there after
the first in-process measurement otherwise.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from repro.core.insum.planner import plan_insum
from repro.engine.emit import Emitted
from repro.engine.specialize import _WINDOW_BYTES, SpecializedKernel
from repro.utils.timing import Timer

#: Bump when what the suite times changes (8: SpMM runs in registers); stale files are ignored.
CALIBRATION_VERSION = 8

#: Environment variable naming the JSON persistence path (optional).
CALIBRATION_ENV_VAR = "REPRO_TUNER_CALIBRATION"


@dataclass(frozen=True)
class Calibration:
    """Measured per-operation costs, in nanoseconds per element.

    Attributes
    ----------
    flop_ns:
        Cost of one scalar multiply or add of the COO/GroupCOO/ELL
        execution shape: the batched vector–matrix ``np.matmul`` over a
        gathered window, its ``K`` a run of equal targets long — or, with
        ``emitted``, of the fused loop nest: the slope of its width fit.
    block_flop_ns:
        Cost of one multiply or add inside a batched block ``np.matmul``
        (the BlockCOO/BlockGroupCOO execution shape) — typically several
        times cheaper than ``flop_ns``, which is exactly why block formats
        win on block-structured data — or, with ``emitted``, of the
        BlockGroupCOO loop nest and its register tile, all in.
    unit_ns:
        What a stored unit costs whatever the dense width: the intercept,
        per stored slot, of the width fit of the row gather (the step list
        pays it per index load) or, with ``emitted``, of the GroupCOO loop
        nest (its index loads and per-unit loop work).
    emitted:
        The constants were measured on the emitted loop nests: a candidate
        is one call of one, whose multiply-adds and stored units are its
        whole cost.  The step list's constants below are then not measured
        (``None``).
    gather_ns:
        Step list: one indirectly-gathered element (``np.take`` of whole
        rows), over one window of gathered rows: the slope of the width fit.
    scatter_ns:
        Step list: one stored element of an indirect output row, the
        disjoint fancy store of a window's run sums (the dot has already
        summed the duplicates of every row).
    overhead_us:
        Step list: the fixed dispatch overhead of one window of a kernel, in
        microseconds — its cuts, gather, dot and store on operands too small
        to matter.
    """

    flop_ns: float
    block_flop_ns: float
    unit_ns: float
    emitted: bool = False
    gather_ns: float | None = None
    scatter_ns: float | None = None
    overhead_us: float | None = None
    version: int = CALIBRATION_VERSION

    def __post_init__(self) -> None:
        if not self.emitted and None in (self.gather_ns, self.scatter_ns, self.overhead_us):
            raise TypeError("a step-list calibration needs gather_ns, scatter_ns and overhead_us")

    # -- persistence ---------------------------------------------------------
    def save(self, path: str | Path) -> None:
        """Write the constants as JSON to ``path`` (parents are created)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(asdict(self), indent=2) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "Calibration | None":
        """Read constants from JSON; ``None`` if missing, corrupt, or stale."""
        path = Path(path)
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        if payload.get("version") != CALIBRATION_VERSION:
            return None
        try:
            return cls(**payload)
        except TypeError:
            return None


def run_microbenchmarks(
    elements: int = _WINDOW_BYTES // 8, repeats: int = 3, rng_seed: int = 0
) -> Calibration:
    """Measure the cost constants on this machine.

    Where plans compile, the probes are the emitted GroupCOO kernel at two
    widths and the BlockGroupCOO kernel.  Otherwise the probe is a
    miniature of the step list: it streams a few consecutive windows of
    ``elements`` float64 temporaries and, on each, gathers, contracts and
    stores — the next primitive reading what the previous one left in the
    cache — with every primitive timed on its own.  One untimed pass over
    every probe comes first.

    Parameters
    ----------
    elements:
        Gathered temporaries of one probed window.  The default is what a
        window of the fused executor holds (``_WINDOW_BYTES`` of float64).
    repeats:
        The stream is timed this many times; per primitive the minimum is
        kept (standard practice — the minimum is the least
        noise-contaminated estimate of the true cost).
    rng_seed:
        Seed for the index/value generation, for reproducible inputs.

    Returns
    -------
    Calibration
        The measured constants.
    """
    rng = np.random.default_rng(rng_seed)
    windows, width, narrow, slots, block, run = 8, 64, 16, 8, 16, 4
    rows = max(1, int(elements) // (width * slots * block)) * block
    runs = rows // run  # the window's groups are runs of ``run`` equal targets
    source = rng.standard_normal((2048, width))
    thin = np.ascontiguousarray(source[:, :narrow])
    index = rng.integers(0, source.shape[0], size=(windows, rows, slots))
    values = rng.standard_normal((windows, rows, slots))
    tiles = rng.standard_normal((rows * slots // block, block, block))
    # Every run has its own target row: the store is disjoint.
    targets = np.stack([rng.permutation(source.shape[0])[:runs] for _ in range(windows)])
    out = np.zeros_like(source)
    tiny, first = np.ones((4, 4)), np.zeros(1, dtype=np.intp)

    def tiny_window() -> None:
        lhs = np.take(tiny[0], first).reshape(1, 1, -1)
        rhs = np.take(tiny, first[None], axis=0)
        tiny[first] = np.matmul(lhs, rhs).reshape(1, -1)

    # What a candidate runs where plans compile to C, each one call of the real
    # kernel on the probe's operands: GroupCOO over the whole stream at both
    # widths (nothing is windowed; the result is the stream's target rows) and
    # BlockGroupCOO over one window's tiles in groups of ``run``.
    block_rows, groups = source.shape[0] // block, len(tiles) // run
    stream = {
        "AV": values.reshape(-1, slots),
        "AK": index.reshape(-1, slots),
        "AM": np.repeat(rng.permutation(windows * runs), run),
    }
    loop = "C[AM[p],n] += AV[p,q] * B[AK[p,q],n]"
    probes = {
        name: (loop, {**stream, "B": b, "C": np.broadcast_to(0.0, (windows * runs, b.shape[1]))})
        for name, b in (("loop", source), ("narrow loop", thin))
    }
    probes["block loop"] = ("C[AM[p],bm,n] += AV[p,q,bm,bk] * B[AK[p,q],bk,n]", {
        "C": np.broadcast_to(np.float64(0.0), (block_rows, block, width)),
        "AV": tiles.reshape(groups, run, block, block),
        "AK": rng.integers(0, block_rows, size=(groups, run)),
        "AM": rng.permutation(block_rows)[:groups],
        "B": source.reshape(block_rows, block, width),
    })  # fmt: skip
    kernels = {}
    for name, (expression, tensors) in probes.items():
        plan = plan_insum(expression, tensors, check_bounds=False)
        kernels[name] = (SpecializedKernel.build(plan), tensors)
    emitted = all(isinstance(kernel.emitted, Emitted) for kernel, _ in kernels.values())

    # Every temporary is written into a buffer allocated once, as a warm process
    # reuses pages its allocator already mapped: a fresh one maps each new window
    # (glibc serves blocks this large with mmap until a larger one is freed).
    # ``mode="clip"`` because ``take`` copies ``out`` under the default
    # ``"raise"``; the indices are in range either way.
    gathered, narrowed = np.empty((rows, slots, width)), np.empty((rows, slots, narrow))
    sums, blocks = np.empty((runs, 1, width)), np.empty((len(tiles), block, width))
    lhs, rhs = values.reshape(windows, runs, 1, -1), gathered.reshape(runs, -1, width)

    def one_pass(timed) -> None:
        """Every probe of the executor that runs once, each through
        ``timed(name, fn)``."""
        if emitted:
            for name, (kernel, tensors) in kernels.items():
                timed(name, lambda: kernel.run(tensors))
            return
        for w in range(windows):
            timed("gather", lambda: np.take(source, index[w], 0, gathered, "clip"))
            timed("dot", lambda: np.matmul(lhs[w], rhs, out=sums))
            timed("block", lambda: np.matmul(tiles, rhs.reshape(blocks.shape), out=blocks))
            timed("scatter", lambda: out.__setitem__(targets[w], sums[:, 0]))
            timed("narrow gather", lambda: np.take(thin, index[w], 0, narrowed, "clip"))
        # Fixed dispatch overhead: a window of one run on tiny operands.
        timed("overhead", lambda: [tiny_window() for _ in range(100)])

    one_pass(lambda name, fn: fn())
    best: dict[str, float] = {}
    for _ in range(repeats):
        spent: dict[str, float] = {}

        def timed(name: str, fn):
            with Timer() as timer:
                result = fn()
            spent[name] = spent.get(name, 0.0) + timer.elapsed
            return result

        one_pass(timed)
        best = {name: min(best.get(name, seconds), seconds) for name, seconds in spent.items()}

    slotted = windows * rows * slots  # stored slots of the stream: gathered rows
    count = slotted * width  # elements every probe touched

    def width_fit(probe: str, per_width: int) -> tuple[float, float]:
        """``(ns per element of width, ns per stored slot)`` of a probe timed
        at both widths, ``per_width`` elements per slot and unit of width."""
        wide, short = best[probe], best[f"narrow {probe}"]
        slope = (wide - short) / (slotted * per_width * (width - narrow))
        intercept = short / slotted - slope * per_width * narrow
        return max(slope * 1e9, 1e-3), max(intercept * 1e9, 1e-3)

    def per_block_flop(seconds: float) -> float:
        return max(seconds / (2 * count * block) * 1e9, 1e-4)

    if emitted:
        flop_ns, unit_ns = width_fit("loop", 2)
        # The block loop ran one window's tiles, the stream is ``windows`` of them.
        block_flop_ns = per_block_flop(best["block loop"] * windows)
        return Calibration(flop_ns, block_flop_ns, unit_ns, emitted=True)
    gather_ns, unit_ns = width_fit("gather", 1)
    return Calibration(
        flop_ns=max(best["dot"] / (2 * count) * 1e9, 1e-3),  # a multiply and an add an element
        block_flop_ns=per_block_flop(best["block"]),
        unit_ns=unit_ns,
        gather_ns=gather_ns,
        scatter_ns=max(best["scatter"] / (windows * runs * width) * 1e9, 1e-3),
        overhead_us=max(best["overhead"] / 100 * 1e6, 1e-2),
    )


# ---------------------------------------------------------------------------
# The process-wide calibration (measured once, optionally persisted)
# ---------------------------------------------------------------------------
_CALIBRATION: Calibration | None = None
_CALIBRATION_LOCK = threading.Lock()


def get_calibration() -> Calibration:
    """The process-wide calibration, measuring (or loading) it on first use.

    Resolution order: an already-measured in-process value, then the JSON
    file named by ``REPRO_TUNER_CALIBRATION`` (if set and valid), then a
    fresh microbenchmark run — whose result is written back to that path
    when the variable is set.
    """
    global _CALIBRATION
    if _CALIBRATION is not None:
        return _CALIBRATION
    with _CALIBRATION_LOCK:
        if _CALIBRATION is not None:
            return _CALIBRATION
        path = os.environ.get(CALIBRATION_ENV_VAR)
        if path:
            loaded = Calibration.load(path)
            if loaded is not None:
                _CALIBRATION = loaded
                return _CALIBRATION
        measured = run_microbenchmarks()
        if path:
            try:
                measured.save(path)
            except OSError:
                pass  # persistence is best-effort; the in-memory value stands
        _CALIBRATION = measured
        return _CALIBRATION


def set_calibration(calibration: Calibration | None) -> None:
    """Override (or, with ``None``, reset) the process-wide calibration.

    Used by tests to make cost-model behaviour deterministic and by
    applications that ship pre-measured constants.
    """
    global _CALIBRATION
    with _CALIBRATION_LOCK:
        _CALIBRATION = calibration
