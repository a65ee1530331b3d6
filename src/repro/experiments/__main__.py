"""CLI: run the experiment suite and write EXPERIMENTS.md.

Usage::

    python -m repro.experiments                 # all, default scales
    python -m repro.experiments --scale 0.25    # faster
    python -m repro.experiments --only fig6a fig6b
    python -m repro.experiments --jobs 4        # parallel, same output
    python -m repro.experiments --no-result-cache   # force recompute
    python -m repro.experiments --out /tmp/EXPERIMENTS.md

Repeated invocations answer unchanged configs from the
content-addressed sweep cache under ``--cache-dir`` (bit-identical to
recomputation; ``repro sweep-cache stats`` inspects it).
"""

from __future__ import annotations

import argparse
import sys

from ..cliutil import (
    add_cache_args,
    add_jobs_arg,
    add_streaming_args,
    output_path,
    store_from,
    telemetry_from,
)
from .harness import list_experiments
from .report import render_markdown, run_all


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Reproduce every table and figure of the paper.",
    )
    parser.add_argument(
        "--scale", type=float, default=None,
        help="problem-size multiplier (default: per-experiment)",
    )
    parser.add_argument(
        "--only", nargs="+", default=None, metavar="EXP",
        choices=list_experiments(),
        help=f"subset of experiments; known: {', '.join(list_experiments())}",
    )
    parser.add_argument(
        "--out", type=output_path, default="EXPERIMENTS.md",
        help="output markdown path (default: EXPERIMENTS.md)",
    )
    parser.add_argument(
        "--list", action="store_true", help="list experiment ids and exit"
    )
    add_jobs_arg(parser)
    add_cache_args(parser)
    add_streaming_args(parser)
    args = parser.parse_args(argv)

    if args.list:
        for exp_id in list_experiments():
            print(exp_id)
        return 0

    telemetry = telemetry_from(args)
    jobs = args.jobs
    if telemetry is not None and jobs != 1:
        # The session lives in this process; spawn workers cannot feed
        # its series writers, so telemetry runs force a serial sweep.
        print("streaming telemetry enabled: forcing --jobs 1")
        jobs = 1
    # No result cache under telemetry: a cached result replays the
    # numbers but cannot replay the run the session wants to observe.
    store = None if telemetry is not None else store_from(args)

    try:
        if telemetry is not None:
            with telemetry.activate():
                results = run_all(
                    scale=args.scale, only=args.only,
                    progress=lambda msg: print(msg, flush=True),
                    jobs=jobs, store=store,
                )
            telemetry.close()
            summary = telemetry.summary()
            if summary:
                print(summary)
            for report in telemetry.profiler_reports:
                print(report)
        else:
            results = run_all(
                scale=args.scale, only=args.only,
                progress=lambda msg: print(msg, flush=True),
                jobs=jobs, store=store,
            )
        if store is not None:
            print(f"sweep cache: {store.hits} hits, {store.misses} misses, "
                  f"{store.stores} stored ({store.cache_dir})")
    finally:
        if store is not None:
            store.close()
    scale_note = (
        f"--scale {args.scale}" if args.scale is not None
        else "per-experiment defaults"
    )
    document = render_markdown(results, scale_note)
    with open(args.out, "w") as fh:
        fh.write(document)
    failed = [exp_id for exp_id, r in results.items() if not r.ok]
    print(f"wrote {args.out} ({len(results)} experiments)")
    if failed:
        print(f"shape-check failures: {', '.join(failed)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
