"""The BENCH_sweep.json receipt: sweep cache + work stealing proof.

Backs the memoisation PR's claims, committed as
``benchmarks/perf/BENCH_sweep.json``:

- **cold pass**: the golden experiment subset drained through the
  work-stealing queue into a fresh content-addressed store; records
  wall time, per-worker steal balance over the heterogeneous configs,
  and every fingerprint digest.
- **warm pass**: the same sweep against the now-populated store;
  records wall time, cache hits (must be one per point), and that the
  digests are bit for bit the cold ones.

``met`` flags are honest measurements; the exit status gates only the
invariants that must hold on any machine — warm digests identical,
every warm unit a cache hit, and the warm pass beating cold by the
claimed factor (a cache hit is a WAL lookup; cold is a simulation).

Wall-clock reads here are sanctioned: this is reporting-only bench
code (the ``[tool.simlint.allow]`` DET001 entry for ``*/bench/*``).
"""

from __future__ import annotations

import json
import os
import platform
import tempfile
import time
import typing

from .parallel_receipt import SWEEP_GROUPS

#: The honest-speedup bar the receipt reports against: a warm sweep
#: must be at least this many times faster than the cold one.
WARM_SPEEDUP_FLOOR = 5.0


def _run_pass(
    store, jobs: int,
) -> tuple[float, dict[str, str], list[dict], int, int]:
    """One full golden sweep against ``store``.

    Returns ``(wall, digests, steal_stats_per_group, hits, misses)``.
    """
    from ..experiments import harness
    from ..parallel import run_sweep

    hits0, misses0 = store.hits, store.misses
    digests: dict[str, str] = {}
    drains: list[dict] = []
    t0 = time.perf_counter()
    for scale, only in SWEEP_GROUPS:
        results, stats = run_sweep(only, scale, jobs=jobs, store=store)
        if stats is not None:
            drains.append(dict(stats.as_dict(), scale=scale))
        for exp_id, result in results.items():
            digests[f"{exp_id}@{scale}"] = harness.fingerprint_digest(result)
    wall = time.perf_counter() - t0
    return (
        wall, digests, drains,
        store.hits - hits0, store.misses - misses0,
    )


def measure_sweep_cache(jobs: int = 2, progress=None) -> dict:
    """Cold-then-warm golden sweep through a fresh result store."""
    from ..parallel import ResultStore

    points = sum(len(only) for _, only in SWEEP_GROUPS)
    with tempfile.TemporaryDirectory(prefix="bench-sweep-") as tmp:
        with ResultStore(tmp) as store:
            if progress:
                progress(f"cold pass: {points} configs, --jobs {jobs} ...")
            cold_wall, cold_digests, cold_drains, _, cold_misses = _run_pass(
                store, jobs
            )
            if progress:
                progress(f"cold {cold_wall:.1f}s; warm pass ...")
            warm_wall, warm_digests, warm_drains, warm_hits, _ = _run_pass(
                store, jobs
            )
            if progress:
                progress(f"warm {warm_wall:.3f}s "
                         f"({warm_hits}/{points} cache hits)")
            entries = store.stats()["entries"]
    speedup = cold_wall / warm_wall if warm_wall > 0 else float("inf")
    balances = [d["balance"] for d in cold_drains]
    return {
        "points": sorted(cold_digests),
        "jobs": jobs,
        "cold_wall_s": round(cold_wall, 3),
        "warm_wall_s": round(warm_wall, 3),
        "warm_speedup": round(speedup, 1),
        "cold_misses": cold_misses,
        "warm_hits": warm_hits,
        "store_entries": entries,
        "digests": cold_digests,
        "steal": {
            "cold_drains": cold_drains,
            "max_balance": round(max(balances), 4) if balances else None,
        },
        "warm_ran_nothing": not warm_drains,
        "met": {
            "digests_identical": warm_digests == cold_digests,
            "all_warm_hits": warm_hits == points,
            f"warm_speedup_ge_{WARM_SPEEDUP_FLOOR:g}x":
                speedup >= WARM_SPEEDUP_FLOOR,
        },
    }


def build_receipt(jobs: int = 2, progress=None) -> dict:
    from .cli import _git_rev

    return {
        "schema": 1,
        "kind": "sweep cache + work stealing receipt",
        "rev": _git_rev(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),  # simlint: disable=DET005 - host metadata in a bench receipt
        "sweep_cache": measure_sweep_cache(jobs=jobs, progress=progress),
    }


def write_receipt(
    path: str, jobs: int = 2,
    progress: typing.Callable[[str], None] | None = None,
) -> int:
    """Build and write the receipt; exit status for the CLI."""
    receipt = build_receipt(jobs=jobs, progress=progress)
    with open(path, "w") as fh:
        json.dump(receipt, fh, indent=2, sort_keys=True)
        fh.write("\n")
    sweep = receipt["sweep_cache"]
    met = sweep["met"]
    if progress:
        progress(
            f"wrote {path}: cold {sweep['cold_wall_s']}s -> warm "
            f"{sweep['warm_wall_s']}s (x{sweep['warm_speedup']}), "
            f"{sweep['warm_hits']} hits, digests identical: "
            f"{met['digests_identical']}"
        )
    return 0 if all(met.values()) else 1
