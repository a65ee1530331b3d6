"""StreamTelemetry: one telemetry session across workload runs.

A session owns the series writer, the optional engine profiler and the
optional end-of-run registry snapshots, and builds one
:class:`~repro.obs.streaming.hub.StreamHub` + Sampler per simulated
run (an experiment campaign builds a fresh cluster per measured
point).  The runner drives the lifecycle::

    session = StreamTelemetry(series_path="series.jsonl", interval=1.0)
    with session.activate():          # run_workload picks it up
        run_all(...)                  # or run_workload(...) directly
    session.close()

``activate()`` installs the session as the module-global *active*
session; :func:`repro.cluster.runner.run_workload` consults
:func:`active_telemetry` so experiment drivers gain streaming
telemetry without signature changes all the way down.

Streaming telemetry does not propagate into spawn-based parallel
workers (the session lives in the parent process); CLIs force
``--jobs 1`` when telemetry flags are given.
"""

from __future__ import annotations

import contextlib
import json
import typing

from ..metrics import registry_for_cluster
from .hub import StreamHub, attach_cluster
from .profiler import EngineProfiler
from .sampler import Sampler, make_writer

if typing.TYPE_CHECKING:  # pragma: no cover
    from ...cluster.builder import Cluster

_ACTIVE: "StreamTelemetry | None" = None


def active_telemetry() -> "StreamTelemetry | None":
    """The session installed by :meth:`StreamTelemetry.activate`."""
    return _ACTIVE


class StreamTelemetry:
    """Owns writers/profilers; binds a hub+sampler to each run."""

    def __init__(
        self,
        series_path: str | None = None,
        interval: float | None = None,
        series_format: str = "jsonl",
        metrics_path: str | None = None,
        profile: bool = False,
    ):
        self.series_path = series_path
        self.interval = interval if interval is not None else 1.0
        self.metrics_path = metrics_path
        self.profile = profile

        self.writer = None
        if series_path is not None:
            self.writer = make_writer(series_path, series_format)
        self.hub: StreamHub | None = None
        self.sampler: Sampler | None = None
        self.profiler: EngineProfiler | None = None
        self.profiler_reports: list[str] = []
        self.snapshots: list[dict] = []
        self._cluster: "Cluster | None" = None
        self._runs = 0
        self._closed = False

    # -- lifecycle ------------------------------------------------------
    def begin_run(self, cluster: "Cluster") -> None:
        """Attach hooks (and a fresh sampler) to a newly built cluster."""
        if cluster is self._cluster:
            return  # several campaigns may reuse one warmed cluster
        self.end_run()
        self._cluster = cluster
        # Each sample closes every series' window, so a run's rows
        # partition its observations, whatever the sampling cadence.
        self.hub = StreamHub(cluster.sim)
        attach_cluster(cluster, self.hub)
        if self.writer is not None:
            self.sampler = Sampler(
                cluster.sim, self.hub, self.writer, self.interval,
                run=self._runs,
            )
        if self.profile:
            self.profiler = EngineProfiler(cluster.sim)
        self._runs += 1

    def resume(self, phase: str | None = None) -> None:
        """(Re)start sampling for one job/phase."""
        if self.sampler is not None:
            if phase is not None:
                self.sampler.phase = phase
            self.sampler.start()

    def pause(self) -> None:
        """Stop sampling at a job boundary (final sample included)."""
        if self.sampler is not None:
            self.sampler.pause()

    def end_run(self) -> None:
        """Seal the current run: pause, snapshot, detach the profiler."""
        if self._cluster is None:
            return
        self.pause()
        if self.writer is not None:
            self.writer.flush()
        if self.metrics_path is not None:
            registry = registry_for_cluster(self._cluster)
            self.snapshots.append(registry.snapshot())
        if self.profiler is not None:
            self.profiler_reports.append(self.profiler.render())
            self.profiler.detach()
            self.profiler = None
        self._cluster = None
        self.sampler = None

    def close(self) -> None:
        """End the session: seal the run, close files, write snapshots."""
        if self._closed:
            return
        self._closed = True
        self.end_run()
        if self.writer is not None:
            self.writer.close()
        if self.metrics_path is not None:
            document = (
                self.snapshots[0] if len(self.snapshots) == 1
                else {"runs": self.snapshots}
            )
            with open(self.metrics_path, "w", encoding="utf-8") as fh:
                json.dump(document, fh, indent=2, sort_keys=True,
                          default=repr)
                fh.write("\n")

    # -- global installation -------------------------------------------
    @contextlib.contextmanager
    def activate(self):
        """Install as the active session for the duration of a block."""
        global _ACTIVE
        previous = _ACTIVE
        _ACTIVE = self
        try:
            yield self
        finally:
            _ACTIVE = previous

    def summary(self) -> str:
        """One status line for CLI output."""
        parts = []
        if self.writer is not None:
            parts.append(
                f"time series: {self.writer.path} "
                f"({self.writer.rows_written} rows)"
            )
        if self.metrics_path is not None:
            parts.append(
                f"metrics snapshot{'s' if len(self.snapshots) != 1 else ''}: "
                f"{self.metrics_path} ({len(self.snapshots)} run"
                f"{'s' if len(self.snapshots) != 1 else ''})"
            )
        return "; ".join(parts)
