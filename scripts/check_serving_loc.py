#!/usr/bin/env python
"""Line budget for the serving stack (ROADMAP aim 2: a tracked number).

Prints ``wc -l`` per serving package — ``cluster``, ``gateway``,
``serve``, ``runtime``, ``obs``, ``resilience`` under ``src/repro`` —
and exits 1 when the total exceeds :data:`CEILING`.  The ceiling is the
size the stack had when it was last lowered; a PR that shrinks the stack
lowers it in the same commit, and a PR that needs to raise it has to say
why in review.

Run from the repository root::

    python scripts/check_serving_loc.py
"""

from __future__ import annotations

import sys
from pathlib import Path

PACKAGES = ("cluster", "gateway", "serve", "runtime", "obs", "resilience")

#: Total lines at PR 15 (one fused executor; ``Session.close`` no longer
#: collects FX-graph cycles); 10,556 at PR 14, 10,867 before it.
CEILING = 10547


def package_lines(root: Path) -> dict[str, int]:
    """Lines (``wc -l``: newline count) of ``*.py`` directly in each package."""
    return {
        package: sum(
            path.read_bytes().count(b"\n") for path in sorted((root / package).glob("*.py"))
        )
        for package in PACKAGES
    }


def main() -> int:
    counts = package_lines(Path(__file__).resolve().parent.parent / "src" / "repro")
    total = sum(counts.values())
    for package, lines in counts.items():
        print(f"{lines:7d}  src/repro/{package}")
    print(f"{total:7d}  total (ceiling {CEILING})")
    if total > CEILING:
        print(
            f"serving stack grew past its ceiling by {total - CEILING} lines",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
