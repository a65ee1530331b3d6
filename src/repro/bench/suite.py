"""The microbenchmark suite behind ``python -m repro bench``.

Each benchmark builds a fixed, seeded workload, runs it under a
wall-clock timer and reports a :class:`BenchResult`.  Benchmarks come
in two modes:

- ``throughput``: more units/second is better (event-loop and
  metadata microbenchmarks);
- ``wall``: fewer seconds is better (end-to-end experiment runs).

``scale`` multiplies the problem size so CI can run a fast smoke pass
(``--scale 0.1``) against the same suite the committed baseline was
measured with.  Regression checks always compare *throughput* (or
normalised wall seconds per unit of work), which is scale-invariant,
never raw wall seconds.
"""

from __future__ import annotations

import dataclasses
import random
import time
import typing

from ..units import KiB


@dataclasses.dataclass
class BenchResult:
    """One benchmark measurement."""

    name: str
    #: Best-of-``repeats`` wall seconds for the measured section.
    wall_s: float
    #: Work units completed (events processed, ops issued, requests).
    units: int
    unit: str
    #: "throughput" (units/s, higher is better) or "wall" (normalised
    #: seconds, lower is better).
    mode: str
    repeats: int

    @property
    def throughput(self) -> float:
        return self.units / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def seconds_per_kunit(self) -> float:
        """Wall seconds per 1000 work units (scale-invariant)."""
        return self.wall_s / self.units * 1000.0 if self.units else 0.0

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "wall_s": round(self.wall_s, 6),
            "units": self.units,
            "unit": self.unit,
            "mode": self.mode,
            "repeats": self.repeats,
            "throughput": round(self.throughput, 2),
            "seconds_per_kunit": round(self.seconds_per_kunit, 9),
        }


#: name -> (callable(scale) -> (timed_fn, units, unit, mode), repeats)
SUITE: dict[str, tuple[typing.Callable, int]] = {}


def bench(name: str, repeats: int = 3):
    """Register a benchmark builder under ``name``."""

    def deco(builder):
        SUITE[name] = (builder, repeats)
        return builder

    return deco


def suite_names() -> list[str]:
    return list(SUITE)


def _scaled(base: int, scale: float, minimum: int = 1) -> int:
    return max(minimum, int(base * scale))


# -- event-engine microbenchmarks ---------------------------------------


@bench("event_loop")
def _event_loop(scale: float):
    """Zero-delay resume throughput: the dominant DES pattern.

    Eight processes each run a chain of already-triggered events —
    exactly the shape of resource grants, store hand-offs and
    completion notifications, which are the majority of events in an
    S4D run.
    """
    from ..sim import Simulator

    iters = _scaled(40_000, scale)
    workers = 8

    def build():
        sim = Simulator(seed=1)

        def worker():
            for _ in range(iters):
                ev = sim.event()
                ev.succeed(None)
                yield ev

        for _ in range(workers):
            sim.spawn(worker())
        return sim.run

    # Each iteration processes the chained event plus the process
    # resume bookkeeping; count the yielded events as the work unit.
    return build, workers * iters, "events", "throughput"


@bench("timeout_storm")
def _timeout_storm(scale: float):
    """Timed-event throughput: timer scheduling plus Timeout churn.

    Only eight timers are ever live at once; ``schedule_many`` covers
    the bulk-armed large-population regime.
    """
    from ..sim import Simulator

    iters = _scaled(25_000, scale)
    workers = 8

    def build():
        sim = Simulator(seed=2)

        def worker(step: float):
            for _ in range(iters):
                yield sim.timeout(step)

        for w in range(workers):
            # Distinct steps keep the heap genuinely interleaved.
            sim.spawn(worker(1e-6 * (w + 1)))
        return sim.run

    return build, workers * iters, "timeouts", "throughput"


def _spread_times(n: int, span: float, salt: int = 0) -> list[float]:
    """``n`` sorted pseudo-uniform times over ``[0, span)``.

    A fixed multiplicative hash, not ``random`` — bench inputs must be
    identical across runs and machines.
    """
    return sorted(
        ((i * 2654435761 + salt * 7919) % 1000003) / 1000003 * span
        for i in range(n)
    )


@bench("schedule_many")
def _schedule_many(scale: float):
    """Round-based bulk arming: large pending timer populations.

    Twelve rounds of one ``schedule_many`` burst (16k timers over two
    simulated seconds) drained to empty, dominated by bulk-insert plus
    drain rather than steady-state interleaving.  The streaming
    sampler's pre-armed tick chains are the engine's only
    ``schedule_many`` caller, at 32 ticks a batch.
    """
    from ..sim import Simulator

    rounds = 12
    per = _scaled(16_384, scale, minimum=256)
    batches = [
        [d + 1e-6 for d in _spread_times(per, 2.0, salt=r)]
        for r in range(rounds)
    ]

    def build():
        sim = Simulator(seed=13)

        def run():
            for delays in batches:
                sim.schedule_many(delays)
                sim.run()

        return run

    return build, rounds * per, "timeouts", "throughput"


@bench("resource_handoff")
def _resource_handoff(scale: float):
    """PriorityResource acquire/release hand-off chains."""
    from ..sim import Simulator
    from ..sim.resources import PriorityResource

    iters = _scaled(12_000, scale)
    workers = 16

    def build():
        sim = Simulator(seed=3)
        res = PriorityResource(sim, capacity=2, name="bench")

        def worker():
            for _ in range(iters):
                grant = yield res.acquire()
                try:
                    yield sim.timeout(1e-7)
                finally:
                    res.release(grant)

        for _ in range(workers):
            sim.spawn(worker())
        return sim.run

    return build, workers * iters, "handoffs", "throughput"


# -- metadata-plane microbenchmarks -------------------------------------


@bench("intervalmap_ops")
def _intervalmap_ops(scale: float):
    """IntervalMap point/range queries over a large mapped file."""
    from ..intervals import IntervalMap

    extents = _scaled(20_000, scale, minimum=64)
    queries = _scaled(120_000, scale, minimum=512)

    def build():
        m: IntervalMap[int] = IntervalMap()
        span = extents * 3 * KiB
        for i in range(extents):
            start = i * 3 * KiB
            m.set(start, start + 2 * KiB, i)
        rng = random.Random(1234)
        offsets = [rng.randrange(span) for _ in range(queries)]

        def run():
            for off in offsets:
                m.value_at(off)
                m.overlaps(off, off + 4 * KiB)
                m.covered(off, off + KiB)

        return run

    # Three queries per offset.
    return build, queries * 3, "queries", "throughput"


@bench("dmt_ops")
def _dmt_ops(scale: float):
    """DMT insert/lookup/dirty-cycle with the durable store attached.

    Mimics one Rebuilder epoch: admissions, lookups, dirty marks, a
    periodic ``dirty_extents`` sweep, then flush (clean) everything.
    """
    from ..core.tables import DMT

    extents = _scaled(6_000, scale, minimum=64)
    lookups = _scaled(30_000, scale, minimum=256)
    sweeps = _scaled(400, scale, minimum=8)

    def build():
        rng = random.Random(99)
        files = [f"/bench-{i}.dat" for i in range(8)]

        def run():
            dmt = DMT()
            added = []
            for i in range(extents):
                f = files[i % len(files)]
                off = (i // len(files)) * 8 * KiB
                ext = dmt.add(f, off, "/cache0", i * 4 * KiB, 4 * KiB,
                              dirty=bool(i % 2))
                added.append(ext)
            span = (extents // len(files)) * 8 * KiB
            for _ in range(lookups):
                f = files[rng.randrange(len(files))]
                off = rng.randrange(max(1, span))
                dmt.lookup(f, off, 16 * KiB)
            for _ in range(sweeps):
                dmt.dirty_extents(limit=32)
            for ext in added:
                if ext.dirty:
                    dmt.set_dirty(ext, False)
            dmt.dirty_extents(limit=32)

        return run

    return build, extents + lookups + sweeps, "ops", "throughput"


@bench("cdt_ops")
def _cdt_ops(scale: float):
    """CDT admit/evict churn plus pending-fetch scans at capacity."""
    from ..core.tables import CDT

    admits = _scaled(40_000, scale, minimum=512)
    scans = _scaled(800, scale, minimum=16)

    def build():
        rng = random.Random(7)
        keys = [(f"/f{i % 16}", i * 4096, 4096) for i in range(admits // 4)]

        def run():
            cdt = CDT(capacity_entries=max(64, admits // 16))
            scan_every = max(1, admits // scans)
            for i in range(admits):
                f, off, ln = keys[rng.randrange(len(keys))]
                entry = cdt.admit(f, off, ln, benefit=rng.random())
                if i % 7 == 0:
                    entry.c_flag = True
                if i % scan_every == 0:
                    cdt.pending_fetches(limit=16)

        return run

    return build, admits + scans, "ops", "throughput"


@bench("telemetry_stream")
def _telemetry_stream(scale: float):
    """Streaming-series hot path: observe + periodic window sampling.

    The per-event cost a telemetered run adds on top of the engine:
    one latency observe (a buffered append, folded in batches into the
    windowed Welford stats and the log histogram) and one counter add
    per event, with a full sample-row render every ~1000 observations
    (the 1s-cadence Sampler shape).
    """
    from ..obs.streaming.hub import LatencySeries
    from ..obs.streaming.stats import WindowedCounter

    iters = _scaled(60_000, scale, minimum=512)

    class Clock:
        __slots__ = ("now",)

        def __init__(self):
            self.now = 0.0

    def build():
        clock = Clock()
        latency = LatencySeries(clock, 1.0, 8, name="bench.latency")
        counter = WindowedCounter(clock, 1.0, 8, name="bench.bytes")

        def run():
            observe = latency.observe
            add = counter.add
            for i in range(iters):
                clock.now = i * 1e-3  # sweeps the full bucket ring
                observe((i % 997) * 1e-6)
                add(4096.0)
                if i % 1000 == 0:
                    latency.sample_fields()
                    counter.as_dict()

        return run

    # One latency observe + one counter add per iteration.
    return build, iters * 2, "observes", "throughput"


# -- end-to-end ----------------------------------------------------------


@bench("fig6_e2e", repeats=1)
def _fig6_e2e(scale: float):
    """End-to-end fig6 campaign point (16 KiB) at the fig6 default scale.

    Runs the full stock + S4D measurement for one request size — the
    same code path ``python -m repro.experiments --only fig6a`` takes.
    ``scale`` multiplies fig6's own default experiment scale (0.5).
    """
    from ..experiments import fig6_ior_reqsize as fig6
    from ..experiments.common import campaign_rpr

    exp_scale = 0.5 * scale
    rpr = campaign_rpr(exp_scale)
    # 10 instances x 8 processes x rpr requests, stock + S4D, write+read.
    units = 10 * 8 * rpr * 2 * 2

    def build():
        def run():
            fig6.measure_point(8, 16 * KiB, exp_scale)

        return run

    return build, units, "requests", "wall"


# -- runner --------------------------------------------------------------


def run_suite(
    scale: float = 1.0,
    only: typing.Sequence[str] | None = None,
    repeats: int | None = None,
    progress: typing.Callable[[str], None] | None = None,
) -> list[BenchResult]:
    """Run (a subset of) the suite; returns one result per benchmark."""
    names = list(only) if only else suite_names()
    unknown = [n for n in names if n not in SUITE]
    if unknown:
        raise ValueError(f"unknown benchmarks {unknown}; have {suite_names()}")
    results = []
    for name in names:
        builder, default_repeats = SUITE[name]
        n_repeats = repeats if repeats is not None else default_repeats
        build, units, unit, mode = builder(scale)
        best = None
        for _ in range(max(1, n_repeats)):
            run = build()
            t0 = time.perf_counter()
            run()
            wall = time.perf_counter() - t0
            best = wall if best is None else min(best, wall)
        result = BenchResult(
            name=name, wall_s=best, units=units, unit=unit,
            mode=mode, repeats=max(1, n_repeats),
        )
        results.append(result)
        if progress is not None:
            progress(
                f"{name}: {result.wall_s:.3f}s "
                f"({result.throughput:,.0f} {unit}/s)"
            )
    return results


def compare_to_baseline(
    results: typing.Sequence[BenchResult],
    baseline: dict,
    tolerance: float = 0.25,
) -> list[str]:
    """Regression descriptions vs a ``BENCH_*.json`` baseline document.

    Comparison is scale-invariant: throughput benchmarks compare
    units/second, wall benchmarks compare seconds per 1000 units.  A
    benchmark missing from the baseline is skipped (new benchmarks
    don't fail CI retroactively).
    """
    regressions = []
    base_by_name = {r["name"]: r for r in baseline.get("results", [])}
    for result in results:
        base = base_by_name.get(result.name)
        if base is None:
            continue
        if result.mode == "wall":
            current = result.seconds_per_kunit
            reference = base["seconds_per_kunit"]
            if reference > 0 and current > reference * (1.0 + tolerance):
                regressions.append(
                    f"{result.name}: {current:.6f}s/kunit vs baseline "
                    f"{reference:.6f} (+{(current / reference - 1) * 100:.1f}%,"
                    f" tolerance {tolerance * 100:.0f}%)"
                )
        else:
            current = result.throughput
            reference = base["throughput"]
            if reference > 0 and current < reference * (1.0 - tolerance):
                regressions.append(
                    f"{result.name}: {current:,.0f} {result.unit}/s vs "
                    f"baseline {reference:,.0f} "
                    f"({(current / reference - 1) * 100:.1f}%, tolerance "
                    f"{tolerance * 100:.0f}%)"
                )
    return regressions
