"""Shared helpers for the benchmark harnesses.

Every harness prints the paper-style table or series it reproduces and also
writes it to ``benchmarks/results/<name>.txt`` so EXPERIMENTS.md can be
assembled from the files regardless of pytest's output capturing.

Determinism: the repository-root ``conftest.py`` registers a ``--seed``
option and a session-scoped ``seed`` fixture; harnesses derive every RNG
stream from it, so two runs with the same seed measure the same workload.
"""

from __future__ import annotations

from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def report():
    """Print a report block and persist it under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _report(name: str, text: str) -> None:
        banner = f"\n===== {name} =====\n{text}\n"
        print(banner)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")

    return _report


@pytest.fixture(scope="session")
def modelled_group_size():
    """Section 4.2's power-of-two group-size sweep for a block matrix.

    Each candidate ``g`` is priced by the modelled GPU time of
    :class:`~repro.kernels.StructuredSpMM` at ``num_cols`` dense columns;
    the first of equal minima wins.  The format is the harness's choice:
    the kernel class runs whatever group size it is given.
    """
    from repro.formats.blocking import block_occupancy
    from repro.formats.group_size import select_group_size
    from repro.kernels import StructuredSpMM

    def _pick(matrix, block_shape: tuple[int, int], num_cols: int) -> int:
        occupancy = block_occupancy(matrix, block_shape)
        return select_group_size(
            occupancy,
            runtime_fn=lambda g: StructuredSpMM(
                matrix, block_shape, group_size=g, dtype="fp16"
            ).estimate_ms(num_cols),
            max_group=int(max(occupancy.max(), 1)),
        )

    return _pick
