"""Repository-root pytest configuration.

Registers the ``--seed`` option (an *initial*-conftest-only hook, which
is why it lives here rather than in ``benchmarks/conftest.py``): every
test and benchmark harness derives all of its RNG streams from this one
value through :func:`repro.utils.rng` — named, independent
``np.random.Generator`` streams — so every test and harness run is
reproducible run-to-run and a failure can be replayed locally with the
exact inputs that tripped it (``pytest --seed N``).  Nothing seeds the legacy
process-global RNGs anymore; consumers call ``rng(seed, "stream")``
instead, so adding a draw in one place cannot perturb any other.
"""

from __future__ import annotations

import pytest

DEFAULT_SEED = 7


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--seed",
        action="store",
        type=int,
        default=DEFAULT_SEED,
        help="base seed for every RNG used by the test and benchmark "
        f"harnesses (default {DEFAULT_SEED})",
    )


@pytest.fixture(scope="session")
def seed(request: pytest.FixtureRequest) -> int:
    """The session's base seed; derive streams via ``repro.utils.rng``."""
    return int(request.config.getoption("--seed"))
