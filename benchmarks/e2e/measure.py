"""One repeat of one workload: set-up, the timed run, checks and counters.

:func:`measure` runs in the calling process (the smoke test calls it
directly).  Run as a script it is the benchmark's child process::

    python benchmarks/e2e/measure.py WORKLOAD SEED {setup,run,trace}

and prints one JSON record as its last line.  ``setup`` only times
set-up; ``trace`` wraps the run in cProfile and passes a
``repro.obs.Tracer`` so the record carries per-layer metrics.  The
record's ``ref_s`` holds the reference loop's median time
(:class:`HostSpeed`) during set-up and, for a run, during the timed
region.
"""

from __future__ import annotations

import cProfile
import json
import os
import pstats
import resource
import signal
import statistics
import sys
import time
import traceback

from layers import attribute
from oracle import check_requests, digest
from run import SRC, reference_s
from workloads import WORKLOADS, Workload

MIB = 1024 * 1024


class HostSpeed:
    """Times :func:`run.reference_s` every ``PERIOD`` seconds of a window.

    A ``SIGALRM`` handler runs the loop between the program's bytecodes,
    so the samples follow the host's speed through the window, however
    long it is.  :meth:`window` takes the handler's own time back out.
    Unarmed, it samples only at the end of each window.
    """

    PERIOD = 0.025

    def __init__(self, armed: bool = True):
        self.armed = armed
        self.samples: list[float] = []
        self.spent = 0.0

    def sample(self, *_signal) -> None:
        start = time.perf_counter()
        self.samples.append(reference_s())
        self.spent += time.perf_counter() - start

    def __enter__(self) -> HostSpeed:
        if self.armed:
            self._previous = signal.signal(signal.SIGALRM, self.sample)
            signal.setitimer(signal.ITIMER_REAL, self.PERIOD, self.PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        if self.armed:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)

    def window(self, since: float) -> tuple[float, float]:
        """Seconds since ``since`` less the sampling, and the loop's median
        time over them; the next window starts empty."""
        self.sample()
        seconds = time.perf_counter() - since - self.spent
        ref_s = statistics.median(self.samples)
        self.samples, self.spent = [], 0.0
        return seconds, ref_s


def measure(workload: Workload, seed: int, traced: bool = False,
            started: float | None = None) -> dict:
    """Set up, run and check one repeat; returns its record.

    ``started`` is when set-up began (the child passes its start so
    imports count); by default set-up is timed from this call.
    """
    if started is None:
        started = time.perf_counter()
    # The profiler would see the sampling handler, so a traced run only
    # samples the host at the ends of its windows.
    with HostSpeed(armed=not traced) as speed:
        spec, campaign, cluster = workload.build(seed)
        setup_s, setup_ref_s = speed.window(started)

        tracer = profile = None
        if traced:
            from repro.obs import Tracer

            tracer = Tracer()
            profile = cProfile.Profile(builtins=False)
        start = time.perf_counter()
        if profile is not None:
            profile.enable()
        try:
            calls = workload.execute(spec, campaign, cluster, obs=tracer)
        finally:
            if profile is not None:
                profile.disable()
        wall_s, run_ref_s = speed.window(start)

    phases = {}
    for _, result, _ in calls:
        phases.update(result.phases)
    io_results = requests_of(calls)
    failed, errors = check_requests(io_results, workload.expected_requests)

    sim = cluster.sim
    reads = sorted(k for k in phases if k.startswith("read"))
    cache = cluster.metrics.as_dict() if cluster.metrics is not None else {}
    record = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "ref_s": {"setup": setup_ref_s, "run": run_ref_s},
        # Unscaled, and including the sampling handler's time.
        "phase_wall_s": {phase: s for phase, _, s in calls},
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": workload.expected_requests,
        "requests": len(io_results),
        "failed": failed,
        "errors": errors,
        "sim_write_mb_s": phases["write"].bandwidth / MIB,
        "sim_read_mb_s": phases[reads[-1]].bandwidth / MIB,
        "digest": digest({
            "now": sim.now,
            "events": sim.events_scheduled,
            "bandwidths": {k: p.bandwidth for k, p in phases.items()},
            "cache": cache,
        }),
        "counters": counters(cluster, cache),
    }
    if traced:
        record["layers"] = layer_metrics(profile, tracer)
    return record


def requests_of(calls) -> list:
    """Every rank's ``IOResult`` from :meth:`Workload.execute`'s output."""
    return [
        io
        for _, result, _ in calls
        for phase in result.phases.values()
        for ranks in phase.per_instance
        for stats in ranks
        for io in stats.results
    ]


def counters(cluster, cache: dict) -> dict:
    """Public counters the run already exposes (no timing involved)."""
    sim = cluster.sim
    servers = cluster.dservers + cluster.cservers
    out = {"sim.events": sim.events_scheduled, "sim.now_s": sim.now}
    for key in ("read_hit_ratio", "write_hit_ratio", "admission_ratio",
                "requests_to_cservers", "requests_to_dservers", "flushes",
                "fetches", "benefit_evaluations"):
        out[f"core.{key}"] = cache.get(key, 0)
    for kind, group in (("dserver", cluster.dservers),
                        ("cserver", cluster.cservers)):
        out[f"pfs.server.{kind}_requests"] = sum(s.requests_served for s in group)
        out[f"pfs.server.{kind}_busy_sim_s"] = sum(
            s.busy_log.busy_time() for s in group)
    out["devices.requests"] = sum(s.device.total_requests for s in servers)
    for kind in ("hdd", "ssd"):
        out[f"devices.{kind}_busy_sim_s"] = sum(
            s.device.total_busy_time for s in servers if s.device.kind == kind)
    return out


def layer_metrics(profile: cProfile.Profile, tracer) -> dict:
    """Host time per layer, plus the simulated waiting the trace records."""
    import repro
    from repro.obs import latency_breakdown

    out = attribute(pstats.Stats(profile).stats,
                    os.path.dirname(repro.__file__))
    sim_s = {(row.layer, row.name): row.total
             for row in latency_breakdown(tracer)}
    out["pfs.server.queue_wait_sim_s"] = sim_s.get(("server", "queue_wait"), 0.0)
    out["devices.service_sim_s"] = sim_s.get(("device", "device_service"), 0.0)
    return out


def main(argv: list[str]) -> int:
    started = time.perf_counter()
    name, seed, mode = argv[1], int(argv[2]), argv[3]
    sys.path.insert(0, SRC)
    workload = WORKLOADS[name]
    try:
        if mode == "setup":
            with HostSpeed() as speed:
                workload.build(seed)
                setup_s, ref_s = speed.window(started)
            record = {"setup_s": setup_s, "ref_s": {"setup": ref_s}}
        else:
            record = measure(workload, seed, traced=mode == "trace",
                             started=started)
    except Exception:  # reported to the parent as a failed repeat
        record = {"attempted": workload.expected_requests,
                  "failed": workload.expected_requests,
                  "errors": [traceback.format_exc()]}
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
