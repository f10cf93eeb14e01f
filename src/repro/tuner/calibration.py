"""Microbenchmark calibration of the tuner's cost constants.

The analytical cost model prices a candidate format in *primitive
operations* — indirect gathers, scatter-adds, scalar multiply-accumulates,
and contiguous (block/matmul) multiply-accumulates.  Rather than hard-code
per-operation costs, they are **measured once per process** with
:class:`repro.utils.timing.Timer` microbenchmarks over exactly the NumPy
primitives the executor uses (fancy indexing, the engine's planned
``segment_add`` scatter, ``einsum``, ``matmul``) — the AraOS-style "calibrate the model from the hardware you
are on" approach (PAPERS.md).

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

from repro.engine.segment import plan_scatter, segment_add
from repro.utils.timing import Timer

#: Bump when the benchmark suite changes; stale persisted files are ignored.
CALIBRATION_VERSION = 2

#: Environment variable naming the JSON persistence path (optional).
CALIBRATION_ENV_VAR = "REPRO_TUNER_CALIBRATION"


@dataclass(frozen=True)
class Calibration:
    """Measured per-operation costs, in nanoseconds per element.

    Attributes
    ----------
    gather_ns:
        Cost of one indirectly-gathered element (``B[idx]`` fancy
        indexing), amortised over a large gather.
    scatter_ns:
        Cost of one scattered element through
        :func:`repro.engine.segment.segment_add` with a precomputed plan —
        what the executor runs on a warm pattern — the price of an
        indirect output row.
    flop_ns:
        Cost of one scalar multiply-accumulate in a strided ``einsum``
        contraction (the COO/GroupCOO/ELL execution shape).
    block_flop_ns:
        Cost of one multiply-accumulate inside a contiguous ``matmul``
        (the BlockCOO/BlockGroupCOO execution shape) — typically several
        times cheaper than ``flop_ns``, which is exactly why block formats
        win on block-structured data.
    overhead_us:
        Fixed per-kernel dispatch overhead in microseconds.
    """

    gather_ns: float
    scatter_ns: float
    flop_ns: float
    block_flop_ns: float
    overhead_us: float
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


def _best_of(repeats: int, fn) -> float:
    """Minimum wall-clock seconds of ``fn`` over ``repeats`` runs."""
    best = float("inf")
    for _ in range(repeats):
        with Timer() as timer:
            fn()
        best = min(best, timer.elapsed)
    return best


def run_microbenchmarks(
    elements: int = 1 << 18, repeats: int = 3, rng_seed: int = 0
) -> Calibration:
    """Measure the cost constants on this machine.

    Parameters
    ----------
    elements:
        Working-set size of each microbenchmark.  The default (256k
        elements) is large enough to amortise dispatch overhead and small
        enough to finish in tens of milliseconds.
    repeats:
        Each primitive is timed this many times; the minimum is kept
        (standard practice — the minimum is the least noise-contaminated
        estimate of the true cost).
    rng_seed:
        Seed for the index/value generation, for reproducible inputs.

    Returns
    -------
    Calibration
        The measured constants.
    """
    rng = np.random.default_rng(rng_seed)
    n = int(elements)
    width = 32
    source = rng.standard_normal((n // width, width)).astype(np.float64)
    index = rng.integers(0, n // width, size=n // width)
    values = rng.standard_normal((n // width, width))

    # Gather: fancy-index n/width rows of `width` elements each.
    gather_s = _best_of(repeats, lambda: source[index])
    gather_ns = gather_s / n * 1e9

    # Scatter: the engine's segment sum over the same row index, with the
    # plan built outside the timed region as the executor memoizes it.
    out = np.zeros_like(source)
    plan = plan_scatter(index)
    scatter_s = _best_of(repeats, lambda: segment_add(out, index, values, plan=plan))
    scatter_ns = scatter_s / n * 1e9

    # Scalar MAC: an einsum that cannot be lowered to a contiguous matmul.
    a = rng.standard_normal(n)
    b = rng.standard_normal(n)
    flop_s = _best_of(repeats, lambda: np.einsum("p,p->", a, b))
    flop_ns = flop_s / n * 1e9

    # Block MAC: a contiguous matmul with the same total MAC count.
    k = 64
    m = max(1, n // k)
    lhs = rng.standard_normal((m, k))
    rhs = rng.standard_normal((k, k))
    block_s = _best_of(repeats, lambda: lhs @ rhs)
    block_flop_ns = block_s / (m * k * k) * 1e9

    # Fixed dispatch overhead: a minimal einsum on tiny operands.
    tiny = np.ones(4)
    overhead_s = _best_of(repeats, lambda: [np.einsum("p,p->", tiny, tiny) for _ in range(100)])
    overhead_us = overhead_s / 100 * 1e6

    return Calibration(
        gather_ns=max(gather_ns, 1e-3),
        scatter_ns=max(scatter_ns, 1e-3),
        flop_ns=max(flop_ns, 1e-3),
        block_flop_ns=max(block_flop_ns, 1e-4),
        overhead_us=max(overhead_us, 1e-2),
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
