#!/usr/bin/env python
"""Generate (or refresh) a committed workload-trace file.

The committed smoke trace under ``benchmarks/traces/`` is the input to
the replay floors: ``tests/replay/test_soak.py`` and
``tests/gateway/test_replay_gateway.py`` replay it through a cluster and
a gateway and hold its SLO attainment to absolute floors.  This script
is how that file is made — and remade byte-identically, because
everything derives from the ``--seed`` through named
:func:`repro.utils.rng` streams.

Run from the repository root::

    PYTHONPATH=src python scripts/make_trace.py \
        --out benchmarks/traces/mixed_smoke.jsonl \
        --name mixed-smoke --seed 7 --records 96 --rate 200

Use ``--regime NAME`` for a single-tenant trace over one tuner regime,
``--arrival onoff`` for the bursty process, ``--no-digests`` to skip
expected-result digests (replay harnesses on other machines refresh
them locally anyway; see ``docs/REPLAY.md``).  ``--chaos FRACTION``
stamps a seeded random subset of records with tight ``deadline_ms``
extras, so replaying the trace exercises deadline enforcement end to
end (see ``docs/RESILIENCE.md``).

Exit status 0 on success; the trace is verified by re-reading it.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.replay import (  # noqa: E402 — after the src/ path shim
    ARRIVALS,
    REGIMES,
    SLOTarget,
    read_trace,
    synthesize,
    synthesize_regime,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True, help="destination .jsonl path")
    parser.add_argument("--name", default="mixed-smoke", help="trace name (header field)")
    parser.add_argument("--seed", type=int, default=7, help="base seed for every stream")
    parser.add_argument("--records", type=int, default=96, help="number of requests")
    parser.add_argument("--rate", type=float, default=200.0, help="mean offered load, req/s")
    parser.add_argument(
        "--arrival", choices=ARRIVALS, default="poisson", help="arrival process"
    )
    parser.add_argument(
        "--regime",
        choices=REGIMES,
        default=None,
        help="single-tenant trace over one tuner regime (default: mixed multi-tenant)",
    )
    parser.add_argument(
        "--slo-ms", type=float, default=250.0, help="per-request latency target, ms"
    )
    parser.add_argument(
        "--attainment", type=float, default=0.99, help="required attainment fraction"
    )
    parser.add_argument(
        "--no-digests",
        action="store_true",
        help="skip expected-result digests (operand digests are still written)",
    )
    parser.add_argument(
        "--chaos",
        type=float,
        default=0.0,
        metavar="FRACTION",
        help="fraction of records stamped with a tight deadline_ms extra "
        "(seeded; 0 disables)",
    )
    args = parser.parse_args(argv)
    if not 0.0 <= args.chaos <= 1.0:
        parser.error(f"--chaos must be in [0, 1], got {args.chaos}")

    slo = SLOTarget(latency_ms=args.slo_ms, attainment_target=args.attainment)
    if args.regime:
        trace = synthesize_regime(
            args.regime,
            seed=args.seed,
            num_records=args.records,
            rate_rps=args.rate,
            arrival=args.arrival,
            slo=slo,
            digests=not args.no_digests,
        )
    else:
        trace = synthesize(
            args.name,
            seed=args.seed,
            num_records=args.records,
            rate_rps=args.rate,
            arrival=args.arrival,
            slo=slo,
            digests=not args.no_digests,
        )
    chaos_count = 0
    if args.chaos > 0.0:
        # Seeded independently of the synthesis streams, so adding chaos
        # deadlines never perturbs the workload itself — same operands,
        # same arrivals, byte-identical apart from the extras field.
        from repro.utils.rng import rng

        generator = rng(args.seed, "chaos/deadlines")
        for record in trace.records:
            if generator.random() < args.chaos:
                record.extras["deadline_ms"] = round(
                    float(generator.uniform(0.0, args.slo_ms * 0.2)), 3
                )
                chaos_count += 1
    path = trace.save(args.out)
    verified = read_trace(path)
    chaos_note = f", {chaos_count} chaos deadlines" if chaos_count else ""
    print(
        f"wrote {path}: {len(verified)} records, {len(verified.tenants())} tenants, "
        f"{verified.duration_ms:.0f} ms of trace time, "
        f"SLO {slo.latency_ms:.0f} ms @ {slo.attainment_target:.0%}{chaos_note}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
