"""Receipts (``python -m repro bench --receipt NAME``): one registry.

A receipt measures a claim the code makes about itself and is
committed as ``benchmarks/perf/BENCH_<name>.json``.  Each receipt is
one function registered with :func:`receipt`, in the idiom of the
suite's ``@bench``; it runs its measurements and returns ``(config,
measurements, claims)``.  :func:`write_receipt` is the one writer: it
adds the shared header (``schema``, ``receipt``, ``rev``, ``python``,
``machine``, ``cpus``), writes the document and returns the exit
status — 1 exactly when a claim marked ``gated`` has ``met: false``.
A claim on a wall-clock ratio that a shared host cannot hold steadily
is recorded with ``gated: false``.

- ``alloc``: allocations per processed event and pool memory
  behaviour of the two counted engine benchmarks;
- ``capacity``: the fig7-style 1024/2048/4096-rank sweep, whose
  per-rank memory and per-request wall time must stay flat;
- ``coalescing``: one stock campaign's stripe fragments against the
  sub-requests per-server coalescing puts on the wire;
- ``streaming``: streaming telemetry on against off;
- ``sweep``: the golden points (one per experiment) serial, cold at
  ``--jobs N`` into a fresh result store, then warm from it.

Wall-clock reads here are sanctioned: reporting-only bench code (the
``[tool.simlint.allow]`` DET001 entry for ``*/bench/*``).
"""

from __future__ import annotations

import gc
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
import tracemalloc
import typing

from .suite import SUITE

#: Version of the receipt document layout (the per-receipt layouts it
#: replaced went up to 2).
SCHEMA = 3

#: Worker processes for the sweep receipt when ``--jobs`` is not given.
DEFAULT_JOBS = 2

#: name -> callable(scale, repeats, jobs, progress) returning
#: ``(config, measurements, claims)``.
RECEIPTS: dict[str, typing.Callable] = {}


def receipt(name: str):
    """Register a receipt function under ``name``."""

    def deco(fn):
        RECEIPTS[name] = fn
        return fn

    return deco


def claim(met: bool, gated: bool, **evidence) -> dict:
    """One claim: its evidence plus boolean ``met`` and ``gated``."""
    return dict(evidence, met=bool(met), gated=gated)


def git_rev() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False,
        )
        rev = out.stdout.strip()
        return rev if out.returncode == 0 and rev else "unknown"
    except OSError:
        return "unknown"


def write_receipt(
    name: str, path: str, scale: float = 1.0, repeats: int | None = None,
    jobs: int = DEFAULT_JOBS,
    progress: typing.Callable[[str], None] | None = None,
) -> int:
    """Run receipt ``name`` and write its document to ``path``.

    Returns 1 when a gated claim is unmet, else 0.
    """
    config, measurements, claims = RECEIPTS[name](
        scale, repeats, jobs, progress
    )
    document = {
        "schema": SCHEMA,
        "receipt": name,
        "rev": git_rev(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),  # simlint: disable=DET005 - host metadata in a bench receipt
        "config": config,
        "measurements": measurements,
        "claims": claims,
    }
    with open(path, "w") as fh:
        json.dump(document, fh, indent=2, sort_keys=True)
        fh.write("\n")
    failed = False
    for claim_name, row in claims.items():
        failed = failed or (row["gated"] and not row["met"])
        if progress:
            evidence = ", ".join(
                f"{key} {value}" for key, value in sorted(row.items())
                if key not in ("met", "gated")
                and isinstance(value, (int, float))
            )
            progress(f"claim {claim_name}: {evidence or 'checked'}; "
                     f"met: {row['met']}"
                     f"{'' if row['gated'] else ' (recorded, not gated)'}")
    if progress:
        progress(f"wrote {path}")
    return 1 if failed else 0


def _in_subprocess(script: str, *args: str) -> dict:
    """Run ``script`` in a fresh interpreter; its last stdout line as JSON."""
    env = dict(os.environ)
    src = os.path.normpath(os.path.join(os.path.dirname(__file__), "..", ".."))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True, text=True, env=env, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"receipt subprocess {args} failed:\n{proc.stderr[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- alloc: allocations per event ----------------------------------------
#
# A counting pass patches ``Event.__new__`` to count fresh event-family
# constructions while a benchmark workload runs, and reads the engine's
# ``Simulator.timed_entry_tuples`` counter for boxed timed-queue
# entries: ``allocs_per_event`` = (fresh + tuples) / events.  Memory
# passes record gc-bracketed ``sys.getallocatedblocks`` deltas and a
# tracemalloc peak, so a leaky pool shows up as net block growth.
# Counting and memory passes run apart from the timing pass: the
# patched ``__new__`` and tracemalloc both distort wall clocks.

#: Benchmarks measured for allocation behaviour.
COUNTED = ("event_loop", "timeout_storm")

#: Pre-overhaul engine measured with this module's counting pass at
#: rev ccec87d (git worktree, same machine, same workloads).  Its
#: timed queue boxed one (when, seq, event) triple per entry, counted
#: analytically as tuples_per_event = timed entries / events.
REFERENCE = {
    "rev": "ccec87d",
    "event_loop": {"fresh_per_event": 1.0001, "tuples_per_event": 0.0,
                   "allocs_per_event": 1.0001},
    "timeout_storm": {"fresh_per_event": 0.0001, "tuples_per_event": 1.0,
                      "allocs_per_event": 1.0001},
    "note": (
        "fresh_per_event counts Event-family constructions (patched "
        "__new__) per processed event; the pre-overhaul engine built "
        "one fresh Event per event_loop yield and one boxed timed-"
        "entry triple per timeout_storm timer."
    ),
}

#: Allocations-per-event reduction the allocation plane claims.
REDUCTION_TARGET = 0.5


def _build(name: str, scale: float):
    """Build one benchmark run; returns (run, sim, units)."""
    builder, _ = SUITE[name]
    build, units, _unit, _mode = builder(scale)
    run = build()
    # Both counted benchmarks hand back the bound Simulator.run.
    return run, run.__self__, units


def _count_inline(name: str, scale: float) -> dict:
    """Run once with Event.__new__ patched; returns fresh-alloc stats.

    The patch is never removed — installing any ``__new__`` rewires
    the whole Event subtree's ``tp_new`` slot dispatch, and CPython
    does not cleanly restore it on deletion.  Call this only through
    :func:`_count_pass`, which isolates it in a throwaway subprocess.
    """
    from ..sim.events import Event

    counts: dict[str, int] = {}

    def counting_new(cls, *args, **kwargs):
        counts[cls.__name__] = counts.get(cls.__name__, 0) + 1
        return object.__new__(cls)

    run, sim, units = _build(name, scale)
    Event.__new__ = counting_new  # type: ignore[method-assign]
    run()
    fresh = sum(counts.values())
    tuples = sim.timed_entry_tuples
    return {
        "units": units,
        "fresh_by_class": dict(sorted(counts.items())),
        "fresh_per_event": round(fresh / units, 6),
        "timed_entry_tuples": tuples,
        "tuples_per_event": round(tuples / units, 6),
        "allocs_per_event": round((fresh + tuples) / units, 6),
    }


def _count_pass(name: str, scale: float) -> dict:
    """:func:`_count_inline` in a fresh interpreter (see its docstring)."""
    return _in_subprocess(
        "import json, sys\n"
        "from repro.bench.receipts import _count_inline\n"
        "print(json.dumps(_count_inline(sys.argv[1], float(sys.argv[2]))))",
        name, str(scale),
    )


def _memory_pass(name: str, scale: float) -> dict:
    """Run once under gc-bracketed block counting plus tracemalloc."""
    run, _sim, units = _build(name, scale)
    gc.collect()
    blocks0 = sys.getallocatedblocks()
    tracemalloc.start()
    run()
    _current, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    gc.collect()
    blocks1 = sys.getallocatedblocks()
    return {
        "net_blocks": blocks1 - blocks0,
        "net_blocks_per_event": round((blocks1 - blocks0) / units, 6),
        "tracemalloc_peak_bytes": peak,
    }


def _timing_pass(name: str, scale: float, repeats: int | None) -> dict:
    """Best-of-``repeats`` unpatched wall-clock run."""
    default_repeats = SUITE[name][1]
    best: float | None = None
    units = 0
    for _ in range(max(1, repeats or default_repeats)):
        run, _sim, units = _build(name, scale)
        t0 = time.perf_counter()
        run()
        wall = time.perf_counter() - t0
        best = wall if best is None else min(best, wall)
    return {
        "wall_s": round(best, 6),
        "throughput": round(units / best, 2) if best > 0 else 0.0,
    }


def measure_allocs(scale: float = 1.0) -> dict:
    """Counting passes only (no timing): bench name -> row.

    This is the fast, scale-invariant core the CI regression gate
    runs — allocations *per event* do not change with ``scale``.
    """
    return {name: _count_pass(name, scale) for name in COUNTED}


def check_allocs(measured: dict, baseline: dict,
                 tolerance: float = 0.25) -> list[str]:
    """Regressions of allocs-per-event vs a committed alloc receipt.

    Growth beyond ``tolerance`` (plus a 0.005 absolute floor so a
    0.0001 -> 0.0002 ratio blip cannot fail CI) is a regression.
    """
    regressions = []
    base_benches = baseline["measurements"]["benches"]
    for name, row in measured.items():
        base_row = base_benches.get(name)
        if base_row is None:
            continue
        base = base_row["allocs_per_event"]
        cur = row["allocs_per_event"]
        if cur - base > max(tolerance * base, 0.005):
            regressions.append(
                f"{name}: {cur:.4f} allocs/event vs committed {base:.4f} "
                f"(+{(cur - base) / base * 100 if base else 100:.0f}%, "
                f"tolerance {tolerance * 100:.0f}%)"
            )
    return regressions


@receipt("alloc")
def _alloc(scale, repeats, jobs, progress):
    benches: dict[str, dict] = {}
    for name in COUNTED:
        if progress:
            progress(f"{name} counting/memory/timing ...")
        row = _count_pass(name, scale)
        row.update(_memory_pass(name, scale))
        row.update(_timing_pass(name, scale, repeats))
        benches[name] = row
        if progress:
            progress(
                f"{name}: {row['allocs_per_event']:.4f} allocs/event "
                f"({row['fresh_per_event']:.4f} fresh + "
                f"{row['tuples_per_event']:.4f} tuples), "
                f"{row['throughput']:,.0f}/s"
            )
    ref = REFERENCE["event_loop"]["allocs_per_event"]
    cur = benches["event_loop"]["allocs_per_event"]
    claims = {
        # timeout_storm has no reduction claim: its heap still boxes
        # one tuple per timer, which its row records and
        # --alloc-check holds.
        "alloc_event_loop": claim(
            ref > 0 and cur <= ref * (1.0 - REDUCTION_TARGET), gated=True,
            reference_allocs_per_event=ref,
            allocs_per_event=cur,
            reduction=round(1.0 - cur / ref, 4) if ref else 0.0,
            target_reduction=REDUCTION_TARGET,
            note=("zero-delay chains never arm timers, so the whole "
                  "reduction is the generic-event pool"),
        ),
    }
    return (
        {"scale": scale},
        {"benches": benches, "reference": REFERENCE},
        claims,
    )


# -- capacity: thousand-rank scale ---------------------------------------
#
# One IOR instance per point (16 KiB requests, S4D, write + one read
# run).  Each point runs in a fresh subprocess, so ``ru_maxrss`` (a
# process-lifetime high-water mark) is a clean per-point peak.  The
# sweep runs REPEATS times round-robin and each point keeps its
# fastest run: the workload is deterministic, so the minimum is the run
# least disturbed by other load on the host.

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
    """One sweep point in a fresh interpreter; returns its row."""
    row = _in_subprocess(_POINT_SCRIPT, str(ranks), str(rpr))
    row["rss_kib_per_rank"] = round(row["ru_maxrss_kib"] / ranks, 3)
    row["blocks_per_rank"] = round(row["net_blocks"] / ranks, 2)
    row["us_per_request"] = round(row["wall_s"] * 1e6 / row["requests"], 1)
    return row


@receipt("capacity")
def _capacity(scale, repeats, jobs, progress):
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
        "scale_1024_ranks": claim(
            last["ranks"] >= 1024, gated=True,
            target_ranks=1024, max_ranks=last["ranks"],
        ),
        "memory_flat": claim(
            0.0 < per_rank_growth <= FLATNESS_LIMIT, gated=True,
            rss_kib_per_rank={
                str(p["ranks"]): p["rss_kib_per_rank"] for p in points
            },
            per_rank_growth_x=round(per_rank_growth, 3),
            limit_x=FLATNESS_LIMIT,
            note=("peak-RSS KiB per rank at the largest sweep point vs "
                  "the smallest; <= 1.0 means per-rank cost shrinks as "
                  "fixed interpreter overhead amortises"),
        ),
        "time_flat": claim(
            0.0 < time_growth <= TIME_FLATNESS_LIMIT, gated=True,
            us_per_request={
                str(p["ranks"]): p["us_per_request"] for p in points
            },
            per_request_growth_x=round(time_growth, 3),
            limit_x=TIME_FLATNESS_LIMIT,
            note=("wall microseconds per request (fastest of each "
                  "point's runs) at the largest sweep point vs the "
                  "smallest"),
        ),
    }
    config = {
        "scale": scale,
        "repeats": REPEATS,
        "workload": (
            "fig7-style single IOR instance, 16KiB requests, S4D, "
            f"write + 1 read run, {rpr} requests/rank, paper testbed "
            "at 32 nodes"
        ),
    }
    return config, {"points": points}, claims


# -- coalescing: stripe fragments vs wire sub-requests --------------------


def _stock_campaign() -> dict:
    """One stock sequential campaign's fragment and wire counts."""
    from ..cluster import ClusterSpec, run_workload
    from ..workloads import IORWorkload

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
    return {
        "stripe_fragments": issued + sum(
            c.subrequests_coalesced for c in clients
        ),
        "pfs_subrequests": issued,
        "network_transfers": cluster.fabric.total_transfers,
        "events_scheduled": cluster.sim.events_scheduled,
        "bytes_moved": sum(p.bytes_moved for p in result.phases.values()),
        "network_bytes": cluster.fabric.total_bytes,
    }


@receipt("coalescing")
def _coalescing(scale, repeats, jobs, progress):
    from ..pfs.client import HEADER_BYTES

    if progress:
        progress("stock sequential campaign ...")
    counts = _stock_campaign()
    counts["message_reduction"] = round(
        1.0 - counts["pfs_subrequests"] / counts["stripe_fragments"], 4
    )
    claims = {
        # Coalescing drops messages, never payload: the wire carries
        # the application bytes plus one header per transfer.
        "header_accounting_exact": claim(
            counts["network_bytes"] == counts["bytes_moved"]
            + counts["network_transfers"] * HEADER_BYTES,
            gated=True, header_bytes=HEADER_BYTES,
        ),
    }
    config = {
        "workload": "IOR sequential, 8 ranks x 8 x 4MiB requests, "
                    "8 DServers x 64KiB stripes, stock system",
    }
    return config, counts, claims


# -- streaming: telemetry overhead ---------------------------------------
#
# With sampling at a 1 s sim cadence the simulation's observable
# results (sim clock, bandwidths) must be bit-identical to an
# uninstrumented run — compared via ``float.hex`` so no rounding can
# hide a drift — and wall-clock throughput should stay within
# OVERHEAD_TARGET of telemetry off.

#: The <5% overhead target from the telemetry plane's design note;
#: recorded, not gated (shared CI machines are too noisy for a hard
#: wall-clock gate).
OVERHEAD_TARGET = 0.05

#: Off/on/off trials per streaming receipt.
TRIALS = 3


def _run_case(telemetry_on: bool, scale: float) -> dict:
    """One S4D IOR campaign; wall clock plus bit-exact fingerprints."""
    from ..cluster import ClusterSpec, run_workload
    from ..units import KiB, MiB
    from ..workloads import IORWorkload

    # Steady-state sizing: short runs overweight the fixed per-tick
    # sampling cost and make the overhead ratio noisy.
    rpr = max(16, int(256 * scale))
    spec = ClusterSpec(num_dservers=8, num_cservers=4, num_nodes=8, seed=42)
    workload = IORWorkload(8, 16 * KiB, 256 * MiB, pattern="random",
                           seed=42, requests_per_rank=rpr)

    series_rows = 0
    t0 = time.perf_counter()
    if telemetry_on:
        from ..obs.streaming import StreamTelemetry

        fd, series_path = tempfile.mkstemp(suffix=".jsonl")
        os.close(fd)
        try:
            session = StreamTelemetry(series_path=series_path, interval=1.0)
            with session.activate():
                result = run_workload(spec, workload, s4d=True)
            session.close()
            series_rows = session.writer.rows_written
        finally:
            os.unlink(series_path)
    else:
        result = run_workload(spec, workload, s4d=True)
    wall = time.perf_counter() - t0

    sim = result.cluster.sim
    return {
        "telemetry": telemetry_on,
        "wall_s": round(wall, 4),
        "events_scheduled": sim.events_scheduled,
        "events_per_s": round(sim.events_scheduled / wall, 1)
        if wall > 0 else 0.0,
        "series_rows": series_rows,
        # Bit-exact fingerprints: any clock/ordering perturbation from
        # the sampler would show up here before anywhere else.
        "sim_seconds_hex": sim.now.hex(),
        "write_bandwidth_hex": result.write_bandwidth.hex(),
        "read_bandwidth_hex": result.read_bandwidth.hex(),
    }


@receipt("streaming")
def _streaming(scale, repeats, jobs, progress):
    """Telemetry off vs on: bracketed paired ratios + fingerprints.

    Shared machines drift — identical runs can move tens of percent
    apart within minutes — so a best-of-N *off* block followed by a
    best-of-N *on* block measures the drift, not the telemetry.  Each
    trial here runs off/on/off back to back and scores the on wall
    against the mean of its two off brackets; the reported overhead is
    the **median** trial ratio, robust to one noisy trial.

    The *sampler adds events* (its ticks), so raw event counts differ
    by design; identity is asserted on the sim clock and the
    bandwidth results, which a clock perturbation would shift.
    """
    import statistics

    trials: list[float] = []
    off: dict | None = None
    on: dict | None = None
    for i in range(TRIALS):
        if progress:
            progress(f"trial {i + 1}/{TRIALS}: off/on/off ...")
        pre = _run_case(False, scale)
        mid = _run_case(True, scale)
        post = _run_case(False, scale)
        bracket = (pre["wall_s"] + post["wall_s"]) / 2
        trials.append(
            round(mid["wall_s"] / bracket - 1.0, 4) if bracket > 0 else 0.0
        )
        for case in (pre, post):
            if off is None or case["wall_s"] < off["wall_s"]:
                off = case
        if on is None or mid["wall_s"] < on["wall_s"]:
            on = mid

    overhead = round(statistics.median(trials), 4)
    claims = {
        "results_identical": claim(
            all(off[key] == on[key]
                for key in ("sim_seconds_hex", "write_bandwidth_hex",
                            "read_bandwidth_hex")),
            gated=True,
        ),
        "within_target": claim(
            overhead < OVERHEAD_TARGET, gated=False,
            overhead_frac=overhead, overhead_target=OVERHEAD_TARGET,
        ),
    }
    config = {
        "scale": scale,
        "repeats": TRIALS,
        "method": "median of off/on/off bracketed trial ratios",
        "workload": "IOR random 16KiB, 8 ranks, S4D, write + 2 read runs",
    }
    measurements = {
        "trial_overheads": trials,
        "off": off,
        "on": on,
        "overhead_frac": overhead,
    }
    return config, measurements, claims


# -- sweep: parallel digests, result cache and work stealing --------------

def sweep_groups() -> list[tuple[float, list[str]]]:
    """The golden points (``harness.GOLDEN_POINTS``), grouped by scale:
    one sweep per scale, in first-seen order."""
    from ..experiments.harness import GOLDEN_POINTS

    groups: dict[float, list[str]] = {}
    for exp_id, scale in GOLDEN_POINTS:
        groups.setdefault(scale, []).append(exp_id)
    return list(groups.items())

#: A warm sweep must be at least this many times faster than the cold
#: one: a cache hit is a WAL lookup, a miss a simulation.
WARM_SPEEDUP_FLOOR = 5.0


def _golden_pass(jobs: int, store) -> tuple[float, dict, list[dict]]:
    """One golden sweep at ``jobs`` workers against ``store`` (or None).

    Returns ``(wall, digests, drains)``.
    """
    from ..experiments import harness
    from ..parallel import run_sweep

    digests: dict[str, str] = {}
    drains: list[dict] = []
    t0 = time.perf_counter()
    for scale, only in sweep_groups():
        results, stats = run_sweep(only, scale, jobs=jobs, store=store)
        if stats is not None:
            drains.append(dict(stats.as_dict(), scale=scale))
        for exp_id, result in results.items():
            digests[f"{exp_id}@{scale}"] = harness.fingerprint_digest(result)
    return time.perf_counter() - t0, digests, drains


@receipt("sweep")
def _sweep(scale, repeats, jobs, progress):
    from ..parallel import ResultStore

    say = progress or (lambda msg: None)
    say("serial pass, no store ...")
    serial_wall, serial, _ = _golden_pass(1, None)
    points = len(serial)
    with tempfile.TemporaryDirectory(prefix="bench-sweep-") as tmp, \
            ResultStore(tmp) as store:
        say(f"serial {serial_wall:.1f}s ({points} points); cold pass, "
            f"--jobs {jobs} ...")
        cold_wall, cold, cold_drains = _golden_pass(jobs, store)
        cold_misses = store.misses
        say(f"cold {cold_wall:.1f}s; warm pass ...")
        warm_wall, warm, warm_drains = _golden_pass(jobs, store)
        # The store starts empty and the points are distinct, so the
        # cold pass hits nothing: every hit is the warm pass's.
        warm_hits = store.hits
        say(f"warm {warm_wall:.3f}s ({warm_hits}/{points} cache hits)")
        entries = store.stats()["entries"]

    speedup = serial_wall / cold_wall if cold_wall > 0 else 0.0
    warm_speedup = cold_wall / warm_wall if warm_wall > 0 else float("inf")
    balances = [d["balance"] for d in cold_drains]
    claims = {
        "digests_match_serial": claim(cold == serial, gated=True),
        "parallel_speedup": claim(
            speedup > 1.0, gated=False, speedup=round(speedup, 3),
            note=("the cold --jobs N pass against the serial pass; a "
                  "one-core host cannot speed up"),
        ),
        "digests_identical": claim(warm == cold, gated=True),
        "all_warm_hits": claim(
            warm_hits == points, gated=True, warm_hits=warm_hits,
            points=points,
        ),
        f"warm_speedup_ge_{WARM_SPEEDUP_FLOOR:g}x": claim(
            warm_speedup >= WARM_SPEEDUP_FLOOR, gated=True,
            warm_speedup=round(warm_speedup, 1),
            floor_x=WARM_SPEEDUP_FLOOR,
        ),
    }
    measurements = {
        "serial_wall_s": round(serial_wall, 3),
        "cold_wall_s": round(cold_wall, 3),
        "warm_wall_s": round(warm_wall, 3),
        "cold_misses": cold_misses,
        "warm_hits": warm_hits,
        "store_entries": entries,
        "digests": serial,
        "steal": {
            "cold_drains": cold_drains,
            "max_balance": round(max(balances), 4) if balances else None,
        },
        "warm_ran_nothing": not warm_drains,
    }
    return {"jobs": jobs, "points": sorted(serial)}, measurements, claims
