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
``emitted`` records it.

Calibration takes a few tens of milliseconds.  The constants can be
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

#: Bump when the benchmark suite changes; stale persisted files are ignored.
CALIBRATION_VERSION = 6

#: Environment variable naming the JSON persistence path (optional).
CALIBRATION_ENV_VAR = "REPRO_TUNER_CALIBRATION"


@dataclass(frozen=True)
class Calibration:
    """Measured per-operation costs, in nanoseconds per element.

    Attributes
    ----------
    gather_ns:
        Cost of one indirectly-gathered element (``np.take`` of whole
        rows), over one window of gathered rows.
    scatter_ns:
        Cost of one stored element of an indirect output row: the disjoint
        fancy store of a window's run sums (the dot has already summed the
        duplicates of every row).
    flop_ns:
        Cost of one scalar multiply or add of the COO/GroupCOO/ELL
        execution shape: the batched vector–matrix ``np.matmul`` over a
        gathered window, its ``K`` a run of equal targets long — or, with
        ``emitted``, of the fused loop nest, index loads and scattered
        ``+=`` included.
    block_flop_ns:
        Cost of one multiply or add inside a batched block ``np.matmul``
        (the BlockCOO/BlockGroupCOO execution shape) — typically several
        times cheaper than ``flop_ns``, which is exactly why block formats
        win on block-structured data — or, with ``emitted``, of the
        BlockGroupCOO loop nest and its register tile, all in.
    overhead_us:
        Fixed dispatch overhead of one window of a kernel, in microseconds:
        its cuts, gather, dot and store on operands too small to matter.
    emitted:
        ``flop_ns`` and ``block_flop_ns`` were measured on the emitted loop
        nests: a candidate is one call of one, whose multiply-adds are its
        whole cost.  The other constants price the step list.
    """

    gather_ns: float
    scatter_ns: float
    flop_ns: float
    block_flop_ns: float
    overhead_us: float
    emitted: bool = False
    version: int = CALIBRATION_VERSION

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

    The probe is a miniature of the fused executor: it streams a few
    consecutive windows of ``elements`` float64 temporaries and, on each,
    gathers, contracts and stores — the next primitive reading what the
    previous one left in the cache, as in a compiled kernel — with every
    primitive timed on its own.

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
    windows, width, slots, block, run = 8, 64, 8, 16, 4
    rows = max(1, int(elements) // (width * slots * block)) * block
    runs = rows // run  # the window's groups are runs of ``run`` equal targets
    source = rng.standard_normal((2048, width))
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

    best: dict[str, float] = {}
    for _ in range(repeats):
        spent = dict.fromkeys(("gather", "dot", "block", "scatter", "overhead"), 0.0)

        def timed(name: str, fn):
            with Timer() as timer:
                result = fn()
            spent[name] += timer.elapsed
            return result

        for w in range(windows):
            gathered = timed("gather", lambda: np.take(source, index[w], axis=0))
            lhs, rhs = values[w].reshape(runs, 1, -1), gathered.reshape(runs, -1, width)
            sums = timed("dot", lambda: np.matmul(lhs, rhs)).reshape(runs, width)
            timed("block", lambda: np.matmul(tiles, gathered.reshape(-1, block, width)))
            timed("scatter", lambda: out.__setitem__(targets[w], sums))
            # As the executor does: free the window before the next allocates.
            gathered = rhs = sums = None
        # Fixed dispatch overhead: a window of one run on tiny operands.
        timed("overhead", lambda: [tiny_window() for _ in range(100)])
        best = {name: min(best.get(name, seconds), seconds) for name, seconds in spent.items()}

    count = windows * rows * slots * width  # elements every probe touched
    # What a candidate runs where plans compile to C, each one call of the real
    # kernel on the probe's operands: GroupCOO over the whole stream (nothing is
    # windowed; the result is the stream's target rows) and BlockGroupCOO over
    # one window's tiles in groups of ``run``.
    block_rows, groups = source.shape[0] // block, len(tiles) // run
    probes = {
        "loop": ("C[AM[p],n] += AV[p,q] * B[AK[p,q],n]", {
            "C": np.broadcast_to(np.float64(0.0), (windows * runs, width)),
            "AV": values.reshape(-1, slots),
            "AK": index.reshape(-1, slots),
            "AM": np.repeat(rng.permutation(windows * runs), run),
            "B": source,
        }),
        "block loop": ("C[AM[p],bm,n] += AV[p,q,bm,bk] * B[AK[p,q],bk,n]", {
            "C": np.broadcast_to(np.float64(0.0), (block_rows, block, width)),
            "AV": tiles.reshape(groups, run, block, block),
            "AK": rng.integers(0, block_rows, size=(groups, run)),
            "AM": rng.permutation(block_rows)[:groups],
            "B": source.reshape(block_rows, block, width),
        }),
    }  # fmt: skip
    for name, (expression, tensors) in probes.items():
        kernel = SpecializedKernel.build(plan_insum(expression, tensors, check_bounds=False))
        for _ in range(repeats if isinstance(kernel.emitted, Emitted) else 0):
            with Timer() as timer:
                kernel.run(tensors)
            best[name] = min(best.get(name, timer.elapsed), timer.elapsed)
    emitted = probes.keys() <= best.keys()
    # The block loop ran one window's tiles, the block matmul all ``windows``.
    block_seconds = best["block loop"] * windows if emitted else best["block"]
    return Calibration(
        gather_ns=max(best["gather"] / count * 1e9, 1e-3),
        scatter_ns=max(best["scatter"] / (windows * runs * width) * 1e9, 1e-3),
        # A multiply and an add per element.
        flop_ns=max(best["loop" if emitted else "dot"] / (2 * count) * 1e9, 1e-3),
        block_flop_ns=max(block_seconds / (2 * count * block) * 1e9, 1e-4),
        overhead_us=max(best["overhead"] / 100 * 1e6, 1e-2),
        emitted=emitted,
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
