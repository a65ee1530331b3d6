"""The BENCH_capacity.json receipt: thousand-rank scale proof.

A fig7-style capacity sweep: one IOR instance at 1024 / 2048 / 4096
ranks (16 KiB requests, S4D enabled, write + one read run) with wall
time, peak RSS and gc-bracketed net allocated-block growth recorded
per point.  The claims are *memory flatness*: per-rank memory cost must
not grow with rank count — compact per-rank state and pooled events
mean doubling the ranks roughly doubles (never super-linearly grows)
the footprint — and *time flatness*: wall time per request must not
grow with rank count either (no per-request scan over state that
scales with the ranks).

Each point runs in a fresh subprocess so ``ru_maxrss`` (a process-
lifetime high-water mark) is a clean per-point peak rather than a
running maximum across the sweep.  The sweep runs ``REPEATS`` times
round-robin and each point keeps its fastest run: the workload is
deterministic, so the minimum is the run least disturbed by other load
on the host, which a single run at the short 1024-rank point is not.

Wall-clock reads here are sanctioned: reporting-only bench code (the
``[tool.simlint.allow]`` DET001 entry for ``*/bench/*``).
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import typing

#: The sweep: paper-testbed spec, one IOR instance per point.
RANKS = (1024, 2048, 4096)
REQUESTS_PER_RANK = 8
REPEATS = 3

#: rss_per_rank(max ranks) / rss_per_rank(min ranks) must stay under
#: this for the memory-flat claim (1.0 = perfectly linear total RSS;
#: headroom for allocator rounding and page-table noise).
FLATNESS_LIMIT = 1.25

#: us_per_request(max ranks) / us_per_request(min ranks) must stay
#: under this for the time-flat claim.
TIME_FLATNESS_LIMIT = 1.2

_POINT_SCRIPT = """
import gc, json, resource, sys, time
from repro.cluster import run_workload
from repro.experiments.common import ior_campaign, testbed

ranks, rpr = int(sys.argv[1]), int(sys.argv[2])
spec = testbed(num_nodes=32)
workload = ior_campaign(ranks, 16 * 1024, instances=1, sequential=1,
                        requests_per_rank=rpr)
gc.collect()
blocks0 = sys.getallocatedblocks()
t0 = time.perf_counter()
result = run_workload(spec, workload, s4d=True, phases=("write", "read"),
                      read_runs=1)
wall = time.perf_counter() - t0
gc.collect()
blocks1 = sys.getallocatedblocks()
print(json.dumps({
    "ranks": ranks,
    "requests": ranks * rpr * 2,
    "wall_s": round(wall, 3),
    "ru_maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    "net_blocks": blocks1 - blocks0,
    "write_mb_s": round(result.write_bandwidth / 1e6, 2),
    "read_mb_s": round(result.read_bandwidth / 1e6, 2),
}))
"""


def _run_point(ranks: int, rpr: int) -> dict:
    """One sweep point in a fresh interpreter; returns its JSON row."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..")
    env["PYTHONPATH"] = os.path.normpath(src) + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    proc = subprocess.run(
        [sys.executable, "-c", _POINT_SCRIPT, str(ranks), str(rpr)],
        capture_output=True, text=True, env=env, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"capacity point at {ranks} ranks failed:\n{proc.stderr[-2000:]}"
        )
    row = json.loads(proc.stdout.strip().splitlines()[-1])
    row["rss_kib_per_rank"] = round(row["ru_maxrss_kib"] / ranks, 3)
    row["blocks_per_rank"] = round(row["net_blocks"] / ranks, 2)
    row["us_per_request"] = round(row["wall_s"] * 1e6 / row["requests"], 1)
    return row


def build_receipt(scale: float = 1.0, progress=None) -> dict:
    from .cli import _git_rev

    rpr = max(2, int(REQUESTS_PER_RANK * scale))
    runs: dict[int, list[dict]] = {ranks: [] for ranks in RANKS}
    for repeat in range(REPEATS):
        for ranks in RANKS:
            row = _run_point(ranks, rpr)
            runs[ranks].append(row)
            if progress:
                progress(
                    f"{ranks} ranks x {rpr} requests/rank, run "
                    f"{repeat + 1}/{REPEATS}: {row['wall_s']:.1f}s wall, "
                    f"{row['ru_maxrss_kib'] / 1024:.0f} MiB peak RSS "
                    f"({row['rss_kib_per_rank']:.1f} KiB/rank)"
                )
    points = []
    for ranks in RANKS:
        row = min(runs[ranks], key=lambda r: r["wall_s"])
        row["wall_s_runs"] = [r["wall_s"] for r in runs[ranks]]
        points.append(row)

    first, last = points[0], points[-1]
    per_rank_growth = (
        last["rss_kib_per_rank"] / first["rss_kib_per_rank"]
        if first["rss_kib_per_rank"] else 0.0
    )
    time_growth = (
        last["us_per_request"] / first["us_per_request"]
        if first["us_per_request"] else 0.0
    )
    claims = {
        "scale_1024_ranks": {
            "target_ranks": 1024,
            "max_ranks": last["ranks"],
            "met": last["ranks"] >= 1024,
        },
        "memory_flat": {
            "rss_kib_per_rank": {
                str(p["ranks"]): p["rss_kib_per_rank"] for p in points
            },
            "per_rank_growth_x": round(per_rank_growth, 3),
            "limit_x": FLATNESS_LIMIT,
            "met": 0.0 < per_rank_growth <= FLATNESS_LIMIT,
            "note": (
                "peak-RSS KiB per rank at the largest sweep point vs "
                "the smallest; <= 1.0 means per-rank cost shrinks as "
                "fixed interpreter overhead amortises"
            ),
        },
        "time_flat": {
            "us_per_request": {
                str(p["ranks"]): p["us_per_request"] for p in points
            },
            "per_request_growth_x": round(time_growth, 3),
            "limit_x": TIME_FLATNESS_LIMIT,
            "met": 0.0 < time_growth <= TIME_FLATNESS_LIMIT,
            "note": (
                "wall microseconds per request (fastest of each "
                "point's runs) at the largest sweep point vs the "
                "smallest"
            ),
        },
    }

    return {
        "schema": 1,
        "kind": "thousand-rank capacity receipt",
        "rev": _git_rev(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),  # simlint: disable=DET005 - host metadata in a bench receipt
        "scale": scale,
        "repeats": REPEATS,
        "workload": (
            "fig7-style single IOR instance, 16KiB requests, S4D, "
            f"write + 1 read run, {rpr} requests/rank, paper testbed "
            "at 32 nodes"
        ),
        "points": points,
        "claims": claims,
    }


def write_receipt(
    path: str, scale: float = 1.0,
    progress: typing.Callable[[str], None] | None = None,
) -> int:
    """Build and write the receipt; exit status for the CLI.

    Exit 1 when the sweep failed to reach 1024 ranks or per-rank
    memory or per-request wall time grew past its flatness limit.
    """
    receipt = build_receipt(scale=scale, progress=progress)
    with open(path, "w") as fh:
        json.dump(receipt, fh, indent=2, sort_keys=True)
        fh.write("\n")
    ok = all(row["met"] for row in receipt["claims"].values())
    if progress:
        for name, growth in (("memory_flat", "per_rank_growth_x"),
                             ("time_flat", "per_request_growth_x")):
            claim = receipt["claims"][name]
            progress(
                f"{name}: {growth} {claim[growth]:.3f}x over "
                f"{RANKS[0]}->{RANKS[-1]} ranks "
                f"(limit {claim['limit_x']}x, met: {claim['met']})"
            )
        progress(f"wrote {path}")
    return 0 if ok else 1
