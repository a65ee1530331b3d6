"""Run workloads on a built cluster and report throughput.

The methodology mirrors §V:

- workload instances run one by one on a shared simulation (the Fig. 6
  setup composes ten IOR instances);
- aggregate bandwidth is total bytes over summed instance makespans;
- reads are measured on a *second* run: the first read run populates
  the CDT and the Rebuilder fetches critical data between runs ("the
  critical data identified and cached by S4D-Cache in the first run
  can improve read performance in the later runs").
"""

from __future__ import annotations

import dataclasses
import typing

from ..errors import ExperimentError
from ..mpiio import MPIJob
from ..mpiio.job import RankStats
from ..obs.streaming import active_telemetry
from ..workloads import Workload
from .builder import Cluster, build_cluster
from .spec import ClusterSpec


@dataclasses.dataclass
class PhaseResult:
    """One measured phase (all instances, one op)."""

    op: str
    bytes_moved: int
    duration: float
    per_instance: list[list[RankStats]]

    @property
    def bandwidth(self) -> float:
        """Aggregate bytes/second (the paper's MB/s axis)."""
        return self.bytes_moved / self.duration if self.duration > 0 else 0.0


@dataclasses.dataclass
class RunResult:
    """Outcome of a full workload campaign on one cluster."""

    cluster: Cluster
    phases: dict[str, PhaseResult]

    @property
    def write_bandwidth(self) -> float:
        return self.phases["write"].bandwidth if "write" in self.phases else 0.0

    @property
    def read_bandwidth(self) -> float:
        """The last (warmed) read run's bandwidth."""
        keys = [k for k in self.phases if k.startswith("read")]
        if not keys:
            return 0.0
        return self.phases[sorted(keys)[-1]].bandwidth

    @property
    def first_read_bandwidth(self) -> float:
        return self.phases["read1"].bandwidth if "read1" in self.phases else 0.0

    @property
    def metrics(self):
        return self.cluster.metrics


def run_workload(
    spec: ClusterSpec,
    workload: Workload | typing.Sequence[Workload],
    s4d: bool = True,
    policy: str | None = None,
    cache_capacity: int | str | None = None,
    phases: typing.Sequence[str] = ("write", "read"),
    read_runs: int = 2,
    cluster: Cluster | None = None,
    obs=None,
    telemetry=None,
) -> RunResult:
    """Execute a workload campaign; returns bandwidths and metrics.

    ``workload`` may be a list of instances executed back to back.
    ``phases`` is an ordered subset of ("write", "read"); the read
    phase runs ``read_runs`` times and each run is recorded as
    ``read1``, ``read2``, ...

    ``obs`` is an optional :class:`repro.obs.Tracer`; when given it is
    bound to the cluster before the first phase so every request is
    traced end to end.

    ``telemetry`` is an optional
    :class:`repro.obs.streaming.StreamTelemetry`; when omitted the
    module-global *active* session (``session.activate()``) is used,
    so experiment drivers inherit streaming telemetry without
    signature changes.  The session's sampler runs only while jobs
    (and drains) are in flight and is paused at each job boundary —
    pausing cancels the pending tick without advancing the clock, so
    simulated results are bit-identical with telemetry on or off.
    """
    instances = list(workload) if isinstance(workload, (list, tuple)) else [workload]
    if not instances:
        raise ExperimentError("no workload instances given")
    for instance in instances:
        instance.validate()

    if cluster is None:
        if cache_capacity is None and s4d:
            total = sum(w.data_bytes() for w in instances)
            cache_capacity = spec.capacity_for(total)
        cluster = build_cluster(
            spec, s4d=s4d, cache_capacity=cache_capacity, policy=policy
        )

    if obs is not None:
        obs.bind(cluster)
    if telemetry is None:
        telemetry = active_telemetry()
    if telemetry is not None:
        telemetry.begin_run(cluster)

    results: dict[str, PhaseResult] = {}
    try:
        for phase in phases:
            if phase == "write":
                results["write"] = _run_phase(cluster, instances, "write",
                                              telemetry)
                if cluster.middleware is not None:
                    _drain(cluster, telemetry)
            elif phase == "read":
                for run in range(1, read_runs + 1):
                    if cluster.middleware is not None:
                        cluster.middleware.identifier.reset_streams()
                    results[f"read{run}"] = _run_phase(
                        cluster, instances, "read", telemetry
                    )
                    if cluster.middleware is not None:
                        _drain(cluster, telemetry)
            elif phase == "interleaved":
                _run_interleaved(cluster, instances, read_runs, results,
                                 telemetry)
            else:
                raise ExperimentError(f"unknown phase {phase!r}")
    finally:
        if telemetry is not None:
            telemetry.end_run()
    return RunResult(cluster=cluster, phases=results)


def _run_interleaved(
    cluster: Cluster,
    instances: list[Workload],
    read_runs: int,
    results: dict[str, PhaseResult],
    telemetry=None,
) -> None:
    """IOR's actual structure: each instance writes then reads.

    Write bandwidth aggregates the write segments only; the read
    segments (and later instances) give the Rebuilder its natural
    window to reorganise, exactly as on the paper's testbed where the
    ten instances run "one by one" with mixed operations.  Additional
    read passes ("the program with a second run", §V.A) follow after
    the first full pass.
    """
    write = PhaseResult("write", 0, 0.0, [])
    first_read = PhaseResult("read", 0, 0.0, [])
    for instance in instances:
        part = _run_phase(cluster, [instance], "write", telemetry)
        write.bytes_moved += part.bytes_moved
        write.duration += part.duration
        write.per_instance.extend(part.per_instance)
        part = _run_phase(cluster, [instance], "read", telemetry)
        first_read.bytes_moved += part.bytes_moved
        first_read.duration += part.duration
        first_read.per_instance.extend(part.per_instance)
    results["write"] = write
    results["read1"] = first_read
    if cluster.middleware is not None:
        _drain(cluster, telemetry)
    for run in range(2, read_runs + 1):
        if cluster.middleware is not None:
            cluster.middleware.identifier.reset_streams()
        results[f"read{run}"] = _run_phase(cluster, instances, "read",
                                           telemetry)
        if cluster.middleware is not None:
            _drain(cluster, telemetry)


def _run_phase(
    cluster: Cluster, instances: list[Workload], op: str, telemetry=None
) -> PhaseResult:
    total_bytes = 0
    duration = 0.0
    per_instance = []
    for instance in instances:
        if cluster.middleware is not None:
            cluster.middleware.identifier.reset_streams()
        job = MPIJob(cluster.sim, cluster.layer, instance.processes)
        if telemetry is not None:
            telemetry.resume(phase=op)
            stats = job.run(instance.make_body(op),
                            on_finalize=telemetry.pause)
        else:
            stats = job.run(instance.make_body(op))
        per_instance.append(stats)
        duration += MPIJob.makespan(stats)
        total_bytes += sum(
            s.bytes_read + s.bytes_written for s in stats
        )
    return PhaseResult(op, total_bytes, duration, per_instance)


def _drain(cluster: Cluster, telemetry=None) -> None:
    """Let the Rebuilder absorb pending flushes/fetches between phases."""
    middleware = cluster.middleware
    assert middleware is not None
    if telemetry is not None:
        telemetry.resume(phase="drain")

    def drain_body():
        yield from middleware.rebuilder.drain()
        if telemetry is not None:
            telemetry.pause()

    cluster.sim.run_process(drain_body(), name="drain")
