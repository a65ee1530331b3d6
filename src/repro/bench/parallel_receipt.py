"""The BENCH_parallel.json receipt: parallel sweep + coalescing proof.

Two measurements, committed as ``benchmarks/perf/BENCH_parallel.json``:

- **sweep**: the golden experiment subset run serially and with
  ``--jobs N``; the receipt records both wall clocks, the speedup, the
  host core count (a 1-core machine cannot speed up, only the digest
  half of the claim is testable there) and — the part that must hold
  everywhere — that the parallel digests are bit-identical to serial.
- **coalescing**: one fig6-style sequential large-request IOR campaign
  on the stock system; the receipt records its stripe fragments, the
  sub-requests per-server coalescing put on the wire, the network
  transfers and engine events, and checks that the wire carries the
  payload plus exactly one header per transfer.

Wall-clock reads here are sanctioned: this is reporting-only bench
code (the ``[tool.simlint.allow]`` DET001 entry for ``*/bench/*``).
"""

from __future__ import annotations

import json
import os
import platform
import time
import typing

#: The golden determinism subset, grouped by run_all scale.
SWEEP_GROUPS: list[tuple[float, list[str]]] = [
    (0.05, ["fig6a", "fig6b", "table3"]),
    (0.1, ["fig9a", "fig9b"]),
]


def _sweep_digests(jobs: int) -> dict[str, str]:
    """Run the golden subset at ``jobs`` workers; digests per point."""
    from ..experiments import harness, report

    digests: dict[str, str] = {}
    for scale, only in SWEEP_GROUPS:
        results = report.run_all(scale=scale, only=only, jobs=jobs)
        for exp_id, result in results.items():
            digests[f"{exp_id}@{scale}"] = harness.fingerprint_digest(result)
    return digests


def measure_sweep(jobs: int, progress=None) -> dict:
    """Serial vs ``jobs``-wide sweep: wall clocks + digest equality."""
    if progress:
        progress(f"sweep: serial pass ({sum(len(o) for _, o in SWEEP_GROUPS)}"
                 " experiments) ...")
    t0 = time.perf_counter()
    serial = _sweep_digests(jobs=1)
    serial_wall = time.perf_counter() - t0
    if progress:
        progress(f"sweep: serial {serial_wall:.1f}s; --jobs {jobs} pass ...")
    t0 = time.perf_counter()
    parallel = _sweep_digests(jobs=jobs)
    parallel_wall = time.perf_counter() - t0
    if progress:
        progress(f"sweep: --jobs {jobs} {parallel_wall:.1f}s")
    return {
        "points": sorted(serial),
        "jobs": jobs,
        "serial_wall_s": round(serial_wall, 3),
        "parallel_wall_s": round(parallel_wall, 3),
        "speedup": round(serial_wall / parallel_wall, 3)
        if parallel_wall > 0 else 0.0,
        "digests": serial,
        "digests_match_serial": serial == parallel,
    }


def measure_coalescing(progress=None) -> dict:
    """One stock campaign: stripe fragments vs wire sub-requests."""
    from ..cluster import ClusterSpec, run_workload
    from ..pfs.client import HEADER_BYTES
    from ..workloads import IORWorkload

    if progress:
        progress("coalescing: stock sequential campaign ...")
    spec = ClusterSpec(num_dservers=8, num_cservers=4, num_nodes=8, seed=42)
    # 4 MiB sequential requests over 8 servers x 64 KiB stripes: each
    # request splits into 64 stripe fragments, 8 per server — exactly
    # the shape per-server-round coalescing collapses 8-to-1.
    workload = IORWorkload(8, "4MB", "256MB", pattern="sequential",
                           seed=42, requests_per_rank=8)
    result = run_workload(spec, workload, s4d=False, read_runs=1)
    cluster = result.cluster
    clients = cluster.direct.clients
    issued = sum(c.subrequests_issued for c in clients)
    fragments = issued + sum(c.subrequests_coalesced for c in clients)
    transfers = cluster.fabric.total_transfers
    bytes_moved = sum(p.bytes_moved for p in result.phases.values())
    return {
        "workload": "IOR sequential, 8 ranks x 8 x 4MiB requests, "
                    "8 DServers x 64KiB stripes, stock system",
        "stripe_fragments": fragments,
        "pfs_subrequests": issued,
        "network_transfers": transfers,
        "events_scheduled": cluster.sim.events_scheduled,
        "message_reduction": round(1.0 - issued / fragments, 4),
        "bytes_moved": bytes_moved,
        "network_bytes": cluster.fabric.total_bytes,
        # Coalescing drops messages, never payload: the wire carries
        # the application bytes plus one header per transfer.
        "header_accounting_exact": cluster.fabric.total_bytes
        == bytes_moved + transfers * HEADER_BYTES,
    }


def build_receipt(jobs: int = 4, progress=None) -> dict:
    from .cli import _git_rev

    return {
        "schema": 2,
        "kind": "parallel+coalescing receipt",
        "rev": _git_rev(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),  # simlint: disable=DET005 - host metadata in a bench receipt
        "sweep": measure_sweep(jobs, progress=progress),
        "coalescing": measure_coalescing(progress=progress),
    }


def write_receipt(
    path: str, jobs: int = 4,
    progress: typing.Callable[[str], None] | None = None,
) -> int:
    """Build and write the receipt; exit status for the CLI."""
    receipt = build_receipt(jobs=jobs, progress=progress)
    with open(path, "w") as fh:
        json.dump(receipt, fh, indent=2, sort_keys=True)
        fh.write("\n")
    sweep = receipt["sweep"]
    coal = receipt["coalescing"]
    if progress:
        progress(
            f"wrote {path}: sweep {sweep['serial_wall_s']}s -> "
            f"{sweep['parallel_wall_s']}s (x{sweep['speedup']}, "
            f"{receipt['cpus']} cpus), digests match: "
            f"{sweep['digests_match_serial']}; coalescing "
            f"{coal['stripe_fragments']} fragments -> "
            f"{coal['pfs_subrequests']} sub-requests "
            f"(-{coal['message_reduction'] * 100:.1f}%), header "
            f"accounting exact: {coal['header_accounting_exact']}"
        )
    ok = sweep["digests_match_serial"] and coal["header_accounting_exact"]
    return 0 if ok else 1
