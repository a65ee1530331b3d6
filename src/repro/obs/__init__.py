"""``repro.obs`` — end-to-end request tracing and unified telemetry.

Four pieces:

- **Tracing** (:class:`Tracer`, :class:`TraceContext`): a per-request
  context threaded from the MPI-IO API down through the middleware,
  PFS client/servers, devices and network, recording nested sim-time
  spans.  Zero-cost when disabled (a layer's ``obs`` and a request's
  ``ctx`` are then None, and no tracer call is made) and guaranteed
  not to perturb event order or randomness when enabled.
- **Export** (:func:`write_chrome`, :func:`write_jsonl`): Chrome
  trace-event JSON (open in https://ui.perfetto.dev — one process per
  server/device/NIC, one thread per MPI rank) and line-oriented JSONL.
- **Telemetry** (:class:`MetricsRegistry`): one labelled snapshot API
  over the simulator's measurement primitives, the cache's counters
  and the tracer's own self-profiling.
- **Streaming** (:mod:`repro.obs.streaming`): windowed series,
  log-histogram latency quantiles, the sim-time sampler/time-series
  export and the ``python -m repro monitor`` live table.  Nothing in
  it draws randomness.

Entry point: ``python -m repro trace --workload ior ...``.
"""

from .context import Span, TraceContext
from .export import (
    component_pids,
    span_lines,
    to_chrome,
    to_jsonl,
    validate_nesting,
    write_chrome,
    write_jsonl,
)
from .metrics import MetricsRegistry, registry_for_cluster, summarize
from .streaming import StreamHub, StreamTelemetry, active_telemetry
from .summary import BreakdownRow, latency_breakdown, render_breakdown
from .tracer import Tracer, TracerStats

__all__ = [
    "BreakdownRow",
    "MetricsRegistry",
    "Span",
    "StreamHub",
    "StreamTelemetry",
    "TraceContext",
    "Tracer",
    "TracerStats",
    "active_telemetry",
    "component_pids",
    "latency_breakdown",
    "registry_for_cluster",
    "render_breakdown",
    "span_lines",
    "summarize",
    "to_chrome",
    "to_jsonl",
    "validate_nesting",
    "write_chrome",
    "write_jsonl",
]
