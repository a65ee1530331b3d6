"""CLI for the perf benchmark suite and receipts (``python -m repro bench``).

Usage::

    python -m repro bench                      # run, print a table
    python -m repro bench --json               # also write BENCH_<rev>.json
    python -m repro bench --scale 0.1 --repeat 5 \\
        --check benchmarks/perf/BENCH_smoke_baseline.json   # CI smoke gate
    python -m repro bench --receipt sweep \\
        --json BENCH_sweep.json                # one receipt, gated exit
    python -m repro bench --scale 0.1 \\
        --alloc-check benchmarks/perf/BENCH_alloc.json      # CI alloc gate
"""

from __future__ import annotations

import argparse
import json
import platform
import sys

from ..cliutil import add_jobs_arg
from ..parallel import resolve_jobs
from .receipts import (
    DEFAULT_JOBS,
    RECEIPTS,
    check_allocs,
    git_rev,
    measure_allocs,
    write_receipt,
)
from .suite import compare_to_baseline, run_suite, suite_names


def document(results, scale: float) -> dict:
    """The BENCH_<rev>.json document for a suite run."""
    return {
        "schema": 1,
        "rev": git_rev(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "scale": scale,
        "results": [r.as_dict() for r in results],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro bench",
        description="Deterministic perf microbenchmarks "
                    f"({', '.join(suite_names())}) and receipts.",
    )
    parser.add_argument("--scale", type=float, default=1.0,
                        help="problem-size multiplier (default 1.0)")
    parser.add_argument("--only", nargs="*", default=None, metavar="BENCH",
                        help="subset of benchmarks to run")
    parser.add_argument("--repeat", type=int, default=None,
                        help="override per-benchmark repeat count")
    parser.add_argument("--json", nargs="?", const="", default=None,
                        metavar="PATH",
                        help="write BENCH_<rev>.json, or with --receipt "
                             "BENCH_<receipt>.json (or PATH if given)")
    parser.add_argument("--check", default=None, metavar="BASELINE",
                        help="compare against a baseline BENCH_*.json; "
                             "exit 1 on regression")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed fractional regression for --check "
                             "(default 0.25)")
    parser.add_argument("--list", action="store_true",
                        help="list benchmark names and exit")
    parser.add_argument("--receipt", choices=sorted(RECEIPTS), default=None,
                        help="measure one receipt, write it to --json "
                             "(default BENCH_<receipt>.json) and exit 1 "
                             "if a gated claim is unmet; --jobs sets the "
                             f"sweep receipt's width (default {DEFAULT_JOBS})")
    parser.add_argument("--alloc-check", default=None, metavar="BASELINE",
                        help="fast counting-only pass vs a committed "
                             "BENCH_alloc.json; exit 1 if allocations "
                             "per event grew past --tolerance")
    add_jobs_arg(parser)
    # Only the sweep receipt fans out (the suite always runs serially,
    # so its wall times stay fit for baselines); without --jobs it runs
    # DEFAULT_JOBS wide.
    parser.set_defaults(jobs=None)
    args = parser.parse_args(argv)

    if args.list:
        for name in suite_names():
            print(name)
        return 0

    if args.receipt is not None:
        jobs = DEFAULT_JOBS if args.jobs is None else resolve_jobs(args.jobs)
        return write_receipt(
            args.receipt, args.json or f"BENCH_{args.receipt}.json",
            scale=args.scale, repeats=args.repeat, jobs=jobs,
            progress=lambda msg: print(msg, flush=True),
        )

    if args.alloc_check is not None:
        with open(args.alloc_check) as fh:
            baseline = json.load(fh)
        measured = measure_allocs(scale=args.scale)
        regressions = check_allocs(
            measured, baseline, tolerance=args.tolerance
        )
        if regressions:
            print(f"ALLOCATION REGRESSION vs {args.alloc_check}:")
            for line in regressions:
                print(f"  {line}")
            return 1
        for name, row in measured.items():
            print(f"{name}: {row['allocs_per_event']:.4f} allocs/event")
        print(f"no allocation regression vs {args.alloc_check} "
              f"(tolerance {args.tolerance * 100:.0f}%)")
        return 0

    results = run_suite(
        scale=args.scale, only=args.only, repeats=args.repeat,
        progress=lambda msg: print(msg, flush=True),
    )

    if args.json is not None:
        path = args.json or f"BENCH_{git_rev()}.json"
        with open(path, "w") as fh:
            json.dump(document(results, args.scale), fh, indent=2)
            fh.write("\n")
        print(f"wrote {path}")

    if args.check is not None:
        with open(args.check) as fh:
            baseline = json.load(fh)
        regressions = compare_to_baseline(
            results, baseline, tolerance=args.tolerance
        )
        if regressions:
            print(f"PERF REGRESSION vs {args.check}:")
            for line in regressions:
                print(f"  {line}")
            return 1
        print(f"no perf regression vs {args.check} "
              f"(tolerance {args.tolerance * 100:.0f}%)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
