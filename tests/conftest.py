"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest


@pytest.fixture
def rng(seed) -> np.random.Generator:
    """A deterministic per-test generator derived from the session ``--seed``.

    A named :func:`repro.utils.rng` stream rather than a hard-coded
    ``default_rng`` seed, so ``pytest --seed N`` reproduces the whole
    suite's draws and no test can perturb another's stream.
    """
    from repro.utils.rng import rng as rng_stream

    return rng_stream(seed, "tests/shared")


@pytest.fixture
def small_sparse_matrix(rng) -> np.ndarray:
    """A small random sparse matrix with ~25% density (8 x 12)."""
    mask = rng.random((8, 12)) < 0.25
    values = rng.standard_normal((8, 12))
    values[values == 0] = 1.0
    return np.where(mask, values, 0.0)


@pytest.fixture
def medium_sparse_matrix(rng) -> np.ndarray:
    """A 64 x 96 random sparse matrix with ~15% density."""
    mask = rng.random((64, 96)) < 0.15
    values = rng.standard_normal((64, 96))
    values[values == 0] = 1.0
    return np.where(mask, values, 0.0)


@pytest.fixture
def block_sparse_matrix(rng) -> np.ndarray:
    """A 64 x 64 matrix whose nonzeros form dense 8 x 8 blocks (~30% of blocks)."""
    dense = np.zeros((64, 64))
    block_mask = rng.random((8, 8)) < 0.3
    for i in range(8):
        for j in range(8):
            if block_mask[i, j]:
                block = rng.standard_normal((8, 8))
                block[block == 0] = 1.0
                dense[i * 8 : (i + 1) * 8, j * 8 : (j + 1) * 8] = block
    if not dense.any():
        dense[:8, :8] = 1.0
    return dense


@pytest.fixture
def steps_only(monkeypatch):
    """No emitter: every plan built inside runs its step list, as on a machine
    without a C compiler.  The step-list suites use it module-wide, so tier-1
    covers both emitters whatever the machine has."""
    from repro import clear_plan_cache
    from repro.engine import emit

    monkeypatch.setenv("CC", "/bin/false")
    monkeypatch.setattr(emit, "_LOADED", {})
    clear_plan_cache()
    yield
    clear_plan_cache()


@pytest.fixture(params=["steps", "C"])
def executor(request):
    """Run a test on the step list (``steps_only``), then where plans compile
    to C; the second leg skips on a machine without a usable ``cc``."""
    from repro.engine import emit

    if request.param == "steps":
        request.getfixturevalue("steps_only")
    elif not emit.compiles():
        pytest.skip("no usable C compiler on this machine")
    return request.param
