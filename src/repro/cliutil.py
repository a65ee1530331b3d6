"""Shared argparse plumbing for the CLIs.

``python -m repro`` (compare/trace/calibrate/replay) and
``python -m repro.experiments`` grew the same workload/cluster flag
blocks independently; this module is the single copy both import.
Everything here is CLI-only — no simulation state.
"""

from __future__ import annotations

import argparse
import os


def output_path(value: str) -> str:
    """argparse ``type=`` for an output file: its directory must exist.

    Checked at parse time, so a mistyped path fails before the
    simulation runs instead of after it.
    """
    directory = os.path.dirname(value) or "."
    if not os.path.isdir(directory):
        raise argparse.ArgumentTypeError(
            f"directory does not exist: {directory}"
        )
    return value


def jobs_count(value: str) -> int:
    """argparse ``type=`` for ``--jobs``: a count >= 0 (0 = all cores).

    Checked at parse time, so a negative value fails before any run
    starts, however many tasks the command would fan out.
    """
    jobs = int(value)
    if jobs < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0: {jobs}")
    return jobs


def add_workload_args(parser: argparse.ArgumentParser) -> None:
    """The workload-shape flag block (generator, sizes, pattern)."""
    parser.add_argument("--workload", default="ior",
                        choices=["ior", "hpio", "tileio", "mix"])
    parser.add_argument("--processes", type=int, default=8)
    parser.add_argument("--request-size", default="16KB")
    parser.add_argument("--file-size", default="2GB")
    parser.add_argument("--pattern", default="random",
                        choices=["sequential", "random"])
    parser.add_argument("--requests-per-rank", type=int, default=128)
    parser.add_argument("--spacing", default="4KB",
                        help="HPIO region spacing")


def add_cluster_args(parser: argparse.ArgumentParser) -> None:
    """The cluster-shape flag block (servers, policy, seed)."""
    parser.add_argument("--dservers", type=int, default=8)
    parser.add_argument("--cservers", type=int, default=4)
    parser.add_argument("--nodes", type=int, default=None,
                        help="compute nodes (default: one per process)")
    parser.add_argument("--policy", default="selective")
    parser.add_argument("--cache-fraction", type=float, default=0.20)
    parser.add_argument("--seed", type=int, default=42)


def add_jobs_arg(parser: argparse.ArgumentParser) -> None:
    """The ``--jobs`` flag: deterministic parallel fan-out width."""
    parser.add_argument(
        "--jobs", type=jobs_count, default=1, metavar="N",
        help="worker processes for independent runs (0 = all cores; "
             "output is bit-identical to --jobs 1)",
    )


#: Default on-disk location of the sweep result cache.
DEFAULT_CACHE_DIR = ".repro-cache"


def add_cache_args(parser: argparse.ArgumentParser) -> None:
    """The sweep-result-cache flag block (``--cache-dir`` et al.).

    The cache is **on by default**: repeated sweeps only recompute
    configs whose content address — (canonical config digest, code
    fingerprint) — changed.  ``--no-result-cache`` opts out; the
    ``repro sweep-cache`` CLI inspects and maintains the store.
    """
    group = parser.add_argument_group("sweep result cache")
    group.add_argument(
        "--cache-dir", default=DEFAULT_CACHE_DIR, metavar="DIR",
        help="content-addressed sweep result cache location "
             f"(default {DEFAULT_CACHE_DIR}; see 'repro sweep-cache')",
    )
    group.add_argument(
        "--no-result-cache", action="store_true",
        help="recompute every config instead of consulting the cache",
    )


def store_from(args: argparse.Namespace):
    """Build the ResultStore a cache-flag namespace asks for (or None)."""
    if getattr(args, "no_result_cache", False):
        return None
    cache_dir = getattr(args, "cache_dir", None)
    if not cache_dir:
        return None
    from .parallel.store import ResultStore

    return ResultStore(cache_dir)


def add_streaming_args(parser: argparse.ArgumentParser) -> None:
    """The streaming-telemetry flag block (sampling, exports, profile).

    Shared by ``repro compare``/``trace`` and ``repro.experiments``;
    build the session with :func:`telemetry_from`.
    """
    group = parser.add_argument_group("streaming telemetry")
    group.add_argument(
        "--sample-interval", type=float, default=None, metavar="SECONDS",
        help="sim-time cadence for streaming series samples "
             "(enables the time-series export; implies --jobs 1)",
    )
    group.add_argument(
        "--series-out", type=output_path, default=None, metavar="PATH",
        help="time-series output file (default series.jsonl when "
             "--sample-interval is given)",
    )
    group.add_argument(
        "--series-format", choices=["jsonl", "csv"], default="jsonl",
        help="time-series file format (default jsonl; the monitor "
             "tails jsonl)",
    )
    group.add_argument(
        "--metrics-out", type=output_path, default=None, metavar="PATH",
        help="write end-of-run registry snapshot(s) as JSON "
             "(implies --jobs 1)",
    )
    group.add_argument(
        "--profile", action="store_true",
        help="attribute engine wall time to component callbacks and "
             "print the breakdown at exit (implies --jobs 1)",
    )


def telemetry_from(args: argparse.Namespace):
    """Build a StreamTelemetry session from a streaming-flag namespace.

    Returns None when no telemetry flag was given.  When a session is
    returned the caller must run serially (``jobs = 1``): the session
    lives in this process and cannot follow work into spawn workers.
    """
    series_out = args.series_out
    if series_out is None and args.sample_interval is not None:
        series_out = "series.jsonl"
    if (series_out is None and args.metrics_out is None
            and not args.profile):
        return None
    from .obs.streaming import StreamTelemetry

    return StreamTelemetry(
        series_path=series_out,
        interval=args.sample_interval,
        series_format=args.series_format,
        metrics_path=args.metrics_out,
        profile=args.profile,
    )


def spec_from(args: argparse.Namespace, processes: int):
    """Build a ClusterSpec from a cluster-flag namespace."""
    from .cluster import ClusterSpec

    return ClusterSpec(
        num_dservers=args.dservers,
        num_cservers=args.cservers,
        num_nodes=(args.nodes if args.nodes is not None
                   else min(processes, 32)),
        cache_fraction=args.cache_fraction,
        policy=args.policy,
        seed=args.seed,
    )


def build_workload(args: argparse.Namespace):
    """Build the requested workload generator from a flag namespace."""
    from .workloads import (
        HPIOWorkload,
        IORWorkload,
        SyntheticMixWorkload,
        TileIOWorkload,
    )

    if args.workload == "ior":
        return IORWorkload(
            args.processes, args.request_size, args.file_size,
            pattern=args.pattern, seed=args.seed,
            requests_per_rank=args.requests_per_rank,
        )
    if args.workload == "hpio":
        return HPIOWorkload(
            args.processes, region_count=args.requests_per_rank,
            region_size=args.request_size, region_spacing=args.spacing,
            seed=args.seed,
        )
    if args.workload == "tileio":
        return TileIOWorkload(
            args.processes, element_size=args.request_size, seed=args.seed
        )
    return SyntheticMixWorkload(
        args.processes, args.file_size, random_fraction=0.5,
        random_request=args.request_size, seed=args.seed,
    )
