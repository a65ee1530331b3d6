"""Command-line interface.

Usage::

    python -m repro compare --workload ior --pattern random \\
        --request-size 16KB --processes 8
    python -m repro trace --workload ior --out trace.json
    python -m repro calibrate
    python -m repro replay mytrace.txt
    python -m repro lint src tests             # forwards
    python -m repro experiments --only fig6a   # forwards
    python -m repro monitor series.jsonl       # live run monitor

Everything the CLI does is also a two-liner against the library; the
CLI exists so a reproduction reviewer can poke the system without
writing code.
"""

from __future__ import annotations

import argparse
import sys

from .cliutil import (
    DEFAULT_CACHE_DIR,
    add_cache_args,
    add_cluster_args,
    add_jobs_arg,
    add_streaming_args,
    add_workload_args,
    build_workload,
    output_path,
    spec_from,
    telemetry_from,
)
from .units import MiB, fmt_size


def _print_comparison(stock, s4d) -> None:
    def row(label, s, c):
        gain = (c / s - 1) * 100 if s > 0 else 0.0
        print(f"{label:<16}{s / MiB:>12.2f}{c / MiB:>12.2f}{gain:>+9.1f}%")

    print(f"{'phase':<16}{'stock MB/s':>12}{'s4d MB/s':>12}{'gain':>10}")
    row("write", stock.write_bandwidth, s4d.write_bandwidth)
    row("read (2nd run)", stock.read_bandwidth, s4d.read_bandwidth)
    metrics = s4d.metrics
    d_pct, c_pct = metrics.request_distribution()
    print()
    print(f"S4D routing: {d_pct:.1f}% DServers / {c_pct:.1f}% CServers; "
          f"admitted {metrics.write_admitted}, "
          f"bounced {metrics.write_bounced}, "
          f"hits {metrics.read_hits + metrics.write_hits}")
    print(f"cache ratios: read hits {metrics.read_hit_ratio:.1%}, "
          f"write hits {metrics.write_hit_ratio:.1%}, "
          f"admission {metrics.admission_ratio:.1%}")


def cmd_compare(args) -> int:
    from .cliutil import store_from
    from .parallel import steal_fanout
    from .parallel.store import config_digest
    from .parallel.workers import run_compare_task

    workload = build_workload(args)
    print(f"workload: {workload!r}")
    telemetry = telemetry_from(args)
    jobs = args.jobs
    if telemetry is not None and jobs != 1:
        # The session lives in this process; spawn workers cannot feed
        # its series writers, so telemetry runs force a serial compare.
        print("streaming telemetry enabled: forcing --jobs 1")
        jobs = 1
    store = None if telemetry is not None else store_from(args)
    # (No result cache under telemetry: a cached result replays the
    # numbers but cannot replay the run the session wants to observe.)
    # Only the flag values cross the process boundary (set_defaults
    # planted the handler function on the namespace; drop it).
    flags = argparse.Namespace(
        **{k: v for k, v in vars(args).items() if k != "func"}
    )
    spec = spec_from(args, workload.processes)

    def run():
        # The stock and S4D campaigns are independent simulations;
        # with --jobs 2 they run side by side (identical output either
        # way — steal_fanout's merge is positional).  The
        # content-addressed digest is taken over the *built* spec and
        # workload, so flag spellings ("16KB" vs 16384) collide onto
        # one cache entry.
        tasks = [("stock", (flags, False)), ("s4d", (flags, True))]
        if store is None:
            results, _ = steal_fanout(
                tasks, run_compare_task, jobs=jobs,
                progress=lambda msg: print(msg, flush=True),
            )
            return results
        digests = {
            task_id: config_digest(
                kind="compare", spec=spec, workload=workload, s4d=s4d
            )
            for task_id, (_, s4d) in tasks
        }
        pending = [
            (task_id, payload) for task_id, payload in tasks
            if digests[task_id] not in store
        ]
        values, _ = steal_fanout(
            pending, run_compare_task, jobs=jobs,
            progress=lambda msg: print(msg, flush=True),
        )
        fresh = dict(zip((task_id for task_id, _ in pending), values))
        merged = []
        for task_id, _ in tasks:
            if task_id in fresh:
                store.put(digests[task_id], fresh[task_id])
                merged.append(fresh[task_id])
            else:
                print(f"{task_id}: sweep cache hit", flush=True)
                merged.append(store.get(digests[task_id]))
        return merged

    try:
        if telemetry is not None:
            with telemetry.activate():
                stock, s4d = run()
            telemetry.close()
        else:
            stock, s4d = run()
    finally:
        if store is not None:
            store.close()
    _print_comparison(stock, s4d)
    if telemetry is not None:
        summary = telemetry.summary()
        if summary:
            print(summary)
        for report in telemetry.profiler_reports:
            print(report)
    return 0


def cmd_sweep_cache(args) -> int:
    import json
    import os

    from .parallel.store import DB_FILENAME, ResultStore

    if args.action != "clear" and not os.path.exists(
        os.path.join(args.cache_dir, DB_FILENAME)
    ):
        print(f"no sweep cache at {args.cache_dir}")
        return 0 if args.action == "stats" else 1
    store = ResultStore(args.cache_dir)
    try:
        if args.action == "stats":
            print(json.dumps(store.stats(), indent=2, sort_keys=True))
        elif args.action == "gc":
            removed = store.gc()
            print(f"gc: removed {removed} stale entries "
                  f"({store.stats()['entries']} remain)")
        elif args.action == "clear":
            store.clear()
            print(f"cleared sweep cache at {args.cache_dir}")
    finally:
        store.close()
    return 0


def cmd_trace(args) -> int:
    from .cluster import run_workload
    from .obs import (
        Tracer,
        registry_for_cluster,
        render_breakdown,
        write_chrome,
        write_jsonl,
    )

    workload = build_workload(args)
    spec = spec_from(args, workload.processes)
    tracer = Tracer()
    system = "stock" if args.stock else "S4D-Cache"
    print(f"workload: {workload!r}")
    print(f"tracing {system} ...")
    telemetry = telemetry_from(args)
    if telemetry is not None:
        with telemetry.activate():
            result = run_workload(
                spec, workload, s4d=not args.stock, obs=tracer,
                read_runs=args.read_runs,
            )
        telemetry.close()
    else:
        result = run_workload(
            spec, workload, s4d=not args.stock, obs=tracer,
            read_runs=args.read_runs,
        )
    write_chrome(tracer, args.out)
    stats = tracer.stats()
    print(f"chrome trace: {args.out} "
          f"({stats.spans} spans, {stats.events} instants)")
    if args.jsonl:
        write_jsonl(tracer, args.jsonl)
        print(f"span log: {args.jsonl}")
    if args.metrics:
        registry = registry_for_cluster(result.cluster, tracer=tracer)
        registry.write_json(args.metrics)
        print(f"metrics snapshot: {args.metrics}")
    print()
    print(render_breakdown(tracer))
    print()
    print(f"tracer overhead: {stats.overhead_wall_seconds * 1e3:.1f}ms wall "
          f"({stats.records_per_wall_second:,.0f} records/s), "
          f"{stats.open_spans} spans left open")
    if telemetry is not None:
        summary = telemetry.summary()
        if summary:
            print(summary)
        for report in telemetry.profiler_reports:
            print(report)
    return 0


def cmd_calibrate(args) -> int:
    from .cluster import calibrate_cost_params
    from .core import CostModel

    spec = spec_from(args, processes=8)
    params = calibrate_cost_params(spec)
    model = CostModel(params)
    print("profiled cost-model parameters (Table I):")
    print(f"  M={params.num_dservers}  N={params.num_cservers}  "
          f"stripe={fmt_size(params.d_stripe)}")
    print(f"  R={params.avg_rotation * 1e3:.2f}ms  "
          f"S={params.max_seek * 1e3:.2f}ms")
    for op in ("read", "write"):
        print(f"  beta_D({op}) = {params.beta_d(op) * MiB * 1e3:.2f} ms/MiB; "
              f"beta_C({op}) = {params.beta_c(op) * MiB * 1e3:.2f} ms/MiB")
    far = 1 << 40
    for op in ("read", "write"):
        crossover = model.crossover_size(op, far)
        text = fmt_size(crossover) if crossover else "none (SSD always wins)"
        print(f"  benefit crossover ({op}): {text}")
    return 0


def cmd_replay(args) -> int:
    from .cluster import run_workload
    from .workloads import TraceWorkload

    workload = TraceWorkload(args.trace)
    spec = spec_from(args, workload.processes)
    print(f"replaying {len(workload.requests)} requests over "
          f"{workload.processes} ranks")
    stock = run_workload(spec, workload, s4d=False)
    s4d = run_workload(spec, workload, s4d=True)
    _print_comparison(stock, s4d)
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "experiments":
        from .experiments.__main__ import main as experiments_main

        return experiments_main(argv[1:])
    if argv and argv[0] == "lint":
        from .analysis.cli import main as lint_main

        return lint_main(argv[1:])
    if argv and argv[0] == "bench":
        from .bench.cli import main as bench_main

        return bench_main(argv[1:])
    if argv and argv[0] == "monitor":
        from .obs.streaming.monitor import main as monitor_main

        return monitor_main(argv[1:])

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="S4D-Cache reproduction toolbox",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compare = sub.add_parser("compare", help="stock vs S4D on a workload")
    add_workload_args(compare)
    add_cluster_args(compare)
    add_jobs_arg(compare)
    add_cache_args(compare)
    add_streaming_args(compare)
    compare.set_defaults(func=cmd_compare)

    sweep_cache = sub.add_parser(
        "sweep-cache",
        help="inspect / maintain the content-addressed sweep result cache",
    )
    sweep_cache.add_argument(
        "action", choices=["stats", "gc", "clear"],
        help="stats: print a JSON summary; gc: drop entries from stale "
             "code revisions and compact; clear: delete everything",
    )
    sweep_cache.add_argument(
        "--cache-dir", default=DEFAULT_CACHE_DIR, metavar="DIR",
        help=f"cache location (default {DEFAULT_CACHE_DIR})",
    )
    sweep_cache.set_defaults(func=cmd_sweep_cache)

    trace = sub.add_parser(
        "trace",
        help="run one traced workload, export a Perfetto-loadable trace",
    )
    add_workload_args(trace)
    add_cluster_args(trace)
    trace.add_argument("--out", type=output_path, default="trace.json",
                       help="Chrome trace-event output file")
    trace.add_argument("--jsonl", type=output_path, default=None,
                       help="also dump raw spans as JSON lines")
    trace.add_argument("--metrics", type=output_path, default=None,
                       help="also dump a unified metrics snapshot (JSON)")
    trace.add_argument("--stock", action="store_true",
                       help="trace the stock system instead of S4D-Cache")
    trace.add_argument("--read-runs", type=int, default=2)
    add_streaming_args(trace)
    trace.set_defaults(func=cmd_trace)

    calibrate = sub.add_parser(
        "calibrate", help="profile the stack, print cost-model parameters"
    )
    add_cluster_args(calibrate)
    calibrate.set_defaults(func=cmd_calibrate)

    replay = sub.add_parser("replay", help="replay a request trace")
    replay.add_argument("trace", help="trace file (rank op offset size)")
    add_cluster_args(replay)
    replay.set_defaults(func=cmd_replay)

    sub.add_parser(
        "experiments",
        help="regenerate the paper's tables/figures "
             "(python -m repro.experiments)",
    )

    sub.add_parser(
        "lint",
        help="simlint: determinism & simulation-safety static analysis "
             "(python -m repro lint src tests)",
    )

    sub.add_parser(
        "bench",
        help="perf microbenchmarks, BENCH_<rev>.json emission "
             "(python -m repro bench --json)",
    )

    sub.add_parser(
        "monitor",
        help="live run monitor: tail a streaming time-series file "
             "(python -m repro monitor series.jsonl)",
    )

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
