"""Unified telemetry: one registry over every end-of-run measurement.

:func:`registry_for_cluster` labels a built cluster's measurements and
the :class:`MetricsRegistry` snapshots and exports them through one
API.  Whatever is registered renders through :func:`summarize`:

- objects with ``as_dict()``: :class:`~repro.sim.monitor.IntervalLog`
  (server busy time), :class:`~repro.core.metrics.CacheMetrics`, the
  tracer itself (self-profiling: wall-clock overhead, spans recorded);
- plain numbers, dicts of the above, and zero-argument callables
  (evaluated lazily at snapshot time).

Labels are dotted paths ("dserver0.busy_time"); snapshots nest along
the dots.
"""

from __future__ import annotations

import json
import numbers
import typing

from ..errors import ConfigError


def summarize(obj: typing.Any) -> typing.Any:
    """Render one registered object as JSON-ready data.

    The primary protocol is ``as_dict()``: every measurement primitive
    (``Counter``/``Tally``/``IntervalLog``, the streaming series,
    ``CacheMetrics``, the tracer) renders itself —
    no isinstance ladder to extend when a new primitive appears.  The
    remaining branches are graceful fallbacks for plain values: dicts
    recurse, scalars pass through, zero-argument callables are
    evaluated lazily, and anything else degrades to ``repr`` rather
    than raising mid-export.
    """
    as_dict = getattr(obj, "as_dict", None)
    if callable(as_dict):
        summary = as_dict()
        if not isinstance(summary, dict):
            raise ConfigError(
                f"{type(obj).__name__}.as_dict() returned "
                f"{type(summary).__name__}, expected dict"
            )
        return summary
    if isinstance(obj, dict):
        return {str(k): summarize(v) for k, v in obj.items()}
    if isinstance(obj, (bool, str)) or obj is None:
        return obj
    if isinstance(obj, numbers.Number):
        return obj
    if callable(obj):
        return summarize(obj())
    return repr(obj)


class MetricsRegistry:
    """Labelled collection of measurement objects with one export API."""

    def __init__(self) -> None:
        self._items: dict[str, typing.Any] = {}

    # -- registration ------------------------------------------------------
    def register(self, name: str, obj: typing.Any) -> typing.Any:
        """Attach ``obj`` under ``name``; returns ``obj`` for chaining."""
        if not name:
            raise ConfigError("metric name must be non-empty")
        if name in self._items:
            raise ConfigError(f"duplicate metric name {name!r}")
        self._items[name] = obj
        return obj

    def names(self) -> list[str]:
        return sorted(self._items)

    def get(self, name: str) -> typing.Any:
        return self._items[name]

    def __contains__(self, name: str) -> bool:
        return name in self._items

    def __len__(self) -> int:
        return len(self._items)

    # -- export ------------------------------------------------------------
    def snapshot(self) -> dict:
        """Nested dict of every metric, resolved now."""
        tree: dict = {}
        for name in sorted(self._items):
            parts = name.split(".")
            node = tree
            for part in parts[:-1]:
                node = node.setdefault(part, {})
                if not isinstance(node, dict):
                    raise ConfigError(
                        f"metric {name!r} nests under a leaf value"
                    )
            node[parts[-1]] = summarize(self._items[name])
        return tree

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True,
                          default=repr)

    def write_json(self, path: str, indent: int | None = 2) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json(indent))
            fh.write("\n")


def registry_for_cluster(cluster, tracer=None) -> MetricsRegistry:
    """Instrument a built cluster: servers, devices, network, cache.

    Callables are registered for values that move (utilisation,
    OS-cache state), so one registry can be snapshotted repeatedly
    through a run.
    """
    registry = MetricsRegistry()
    sim = cluster.sim
    registry.register("sim.now", lambda: sim.now)
    registry.register("sim.queued_events", lambda: sim.queued_events)

    for server in list(cluster.dservers) + list(cluster.cservers):
        base = f"servers.{server.name}"
        registry.register(f"{base}.requests_served",
                          lambda s=server: s.requests_served)
        registry.register(f"{base}.bytes_served",
                          lambda s=server: s.bytes_served)
        registry.register(f"{base}.utilisation",
                          lambda s=server: s.utilisation())
        registry.register(f"{base}.busy", server.busy_log)
        registry.register(f"{base}.device", server.device.telemetry)
        if server.os_cache is not None:
            cache = server.os_cache
            registry.register(f"{base}.oscache", lambda c=cache: {
                "read_hits": c.read_hits,
                "read_refills": c.read_refills,
                "prefetches": c.prefetches,
                "writes_absorbed": c.writes_absorbed,
                "writes_throttled": c.writes_throttled,
                "drained_bytes": c.drained_bytes,
                "dirty_bytes": c.dirty_bytes,
            })

    fabric = cluster.fabric
    registry.register("network.total_transfers",
                      lambda: fabric.total_transfers)
    registry.register("network.total_bytes", lambda: fabric.total_bytes)
    for name, link in sorted(fabric._links.items()):
        registry.register(f"network.links.{name}", link.telemetry)

    if cluster.middleware is not None:
        middleware = cluster.middleware
        registry.register("cache.metrics", middleware.metrics)
        registry.register("cache.dmt_extents",
                          lambda m=middleware: len(m.dmt))
        registry.register("cache.metadata_bytes",
                          lambda m=middleware: m.metadata_bytes())
        registry.register("cache.rebuilder_cycles",
                          lambda m=middleware: m.rebuilder.cycles)

    if tracer is not None:
        registry.register("tracer", tracer)
    return registry
