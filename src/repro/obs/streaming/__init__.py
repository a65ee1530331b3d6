"""``repro.obs.streaming`` — the streaming telemetry plane.

End-of-run snapshots (:class:`~repro.obs.metrics.MetricsRegistry`)
answer "what happened overall"; this package answers "what was
happening at t" with O(1) memory per series:

- :mod:`.hub` — the per-run series registry, the series (cumulative
  statistics plus one window per sample) and the zero-cost-when-
  disabled hot-path adapters;
- :mod:`.stats` — the batch reduction tallies fold with and the log
  histogram behind every latency quantile (no randomness);
- :mod:`.sampler` — the sim-time sampling process and JSONL/CSV
  time-series writers;
- :mod:`.session` — :class:`StreamTelemetry`, the CLI-facing
  lifecycle (activate -> begin_run -> resume/pause -> close);
- :mod:`.profiler` — wall-time attribution of the event loop to
  component callbacks;
- :mod:`.monitor` — the ``python -m repro monitor`` live table.
"""

from .hub import (
    CacheStream,
    GaugeSeries,
    LatencySeries,
    ServerStream,
    StreamHub,
    attach_cluster,
)
from .profiler import EngineProfiler, component_of
from .sampler import (
    CSV_COLUMNS,
    CsvSeriesWriter,
    JsonlSeriesWriter,
    Sampler,
    SeriesWriter,
    make_writer,
)
from .session import StreamTelemetry, active_telemetry
from .stats import DEFAULT_QUANTILES, LogHistogram

__all__ = [
    "CSV_COLUMNS",
    "CacheStream",
    "CsvSeriesWriter",
    "DEFAULT_QUANTILES",
    "EngineProfiler",
    "GaugeSeries",
    "JsonlSeriesWriter",
    "LatencySeries",
    "LogHistogram",
    "Sampler",
    "SeriesWriter",
    "ServerStream",
    "StreamHub",
    "StreamTelemetry",
    "active_telemetry",
    "attach_cluster",
    "component_of",
    "make_writer",
]
