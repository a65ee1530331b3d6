"""The StreamHub: named series registry + hot-path adapters.

A hub owns every streaming series of one simulation run.  Component
hooks (redirector, space manager, file servers, devices, PFS clients,
middleware) hold *direct references* to their series wrapped in tiny
adapter objects — and cost exactly nothing when telemetry is off (the
``stream`` attributes stay None).

When telemetry is on, the hot path is deliberately dumb: a hook
appends ``(sim-time, value)`` to a flat per-series buffer and returns.
The buffered batch folds into the underlying primitives (vectorized
for large batches — see ``stats.observe_many``) at each sample tick
or when the buffer hits ``_BUFFER_CAP``, so per-series memory stays
bounded no matter the stream length.

Series kinds and their sampled row fields:

- ``counter``  — cumulative count/total, window count/total, rate
- ``tally``    — cumulative + trailing-window Welford stats
- ``latency``  — a tally plus P50/P99/P999 from a log histogram
- ``gauge``    — one lazily evaluated value
"""

from __future__ import annotations

import typing

from ...errors import ConfigError
from .stats import (
    DEFAULT_QUANTILES,
    LogHistogram,
    WindowedCounter,
    WindowedTally,
)

if typing.TYPE_CHECKING:  # pragma: no cover
    from ...cluster.builder import Cluster
    from ...sim import Simulator


#: Flat (time, value) pairs a series buffers before folding; bounds
#: per-series memory at ``_BUFFER_CAP`` floats regardless of stream
#: length, so the O(1)-memory guarantee of the primitives survives.
_BUFFER_CAP = 4096

#: Ring buckets per trailing window: a sampled window slides forward
#: in steps of ``window / _BUCKETS``.
_BUCKETS = 8


class CounterSeries(WindowedCounter):
    """A windowed counter as a sampled series.

    Hot-path ``add`` calls append to a flat buffer; the buffered batch
    folds into the counter (vectorized) at each sample tick or when
    the buffer fills.  Reads go through :meth:`as_dict`, which drains
    the buffer first.
    """

    kind = "counter"

    __slots__ = ("_buf", "flushers", "_row_cache")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._buf: list[float] = []
        #: Extra drain callbacks for adapters that batch into this
        #: counter through a buffer of their own (see DeviceStream).
        self.flushers: list = []
        self._row_cache: tuple | None = None

    def add(self, amount: float = 1.0) -> None:
        buf = self._buf
        buf.append(self.clock.now)
        buf.append(amount)
        if len(buf) >= _BUFFER_CAP:
            self._flush()

    def _flush(self) -> None:
        for drain in self.flushers:
            drain()
        buf = self._buf
        if not buf:
            return
        self._buf = []
        self.add_many(buf[0::2], buf[1::2])

    def as_dict(self) -> dict:
        self._flush()
        return super().as_dict()

    def sample_fields(self) -> dict:
        # Idle-series fast path: with no new observations and an
        # already-empty window, the row is constant — a run's quiet
        # series (read-phase write counters, cold-tier devices) cost
        # one count comparison per tick instead of a full rollup.
        # The cached dict is shared; sampling callers must not mutate.
        self._flush()
        count = self.count
        cached = self._row_cache
        if cached is not None and cached[0] == count and cached[2]:
            return cached[1]
        row = WindowedCounter.as_dict(self)
        self._row_cache = (count, row, not row["window_count"])
        return row


class TallySeries(WindowedTally):
    """A windowed tally as a sampled series (buffered like a counter)."""

    kind = "tally"

    __slots__ = ("_buf", "flushers", "_row_cache")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._buf: list[float] = []
        #: Extra drain callbacks for adapters that batch into this
        #: series through a buffer of their own (see ServerStream).
        self.flushers: list = []
        self._row_cache: tuple | None = None

    def observe(self, value: float) -> None:
        buf = self._buf
        buf.append(self.clock.now)
        buf.append(value)
        if len(buf) >= _BUFFER_CAP:
            self._flush()

    def _flush(self) -> None:
        for drain in self.flushers:
            drain()
        buf = self._buf
        if not buf:
            return
        self._buf = []
        self.observe_many(buf[0::2], buf[1::2])

    def rollup(self):
        self._flush()
        return super().rollup()

    def as_dict(self) -> dict:
        self._flush()
        return self._row()

    def sample_fields(self) -> dict:
        # Idle-series fast path (see CounterSeries.sample_fields).
        self._flush()
        count = self.count
        cached = self._row_cache
        if cached is not None and cached[0] == count and cached[2]:
            return cached[1]
        row = self._row()
        self._row_cache = (count, row, not row["window_count"])
        return row

    def _row(self) -> dict:
        """A fresh sampled row from the folded state."""
        return WindowedTally.as_dict(self)


class LatencySeries(TallySeries):
    """A tally series that also reports P50/P99/P999.

    Each flushed batch folds into the windowed tally and into one
    :class:`~repro.obs.streaming.stats.LogHistogram`, so the
    per-observation hot path stays two list appends and a length
    check.
    """

    kind = "latency"

    __slots__ = ("histogram",)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.histogram = LogHistogram()

    def observe_many(self, times, values) -> None:
        super().observe_many(times, values)
        self.histogram.observe_many(values)

    def quantile(self, q: float) -> float:
        self._flush()
        return self.histogram.quantile(q)

    def _row(self) -> dict:
        row = super()._row()
        estimates = self.histogram.quantiles([q for q, _ in DEFAULT_QUANTILES])
        for (_, label), estimate in zip(DEFAULT_QUANTILES, estimates):
            row[label] = estimate
        return row


class GaugeSeries:
    """A lazily evaluated scalar (hit ratio, queue depth, ...)."""

    kind = "gauge"

    __slots__ = ("name", "fn")

    def __init__(self, fn: typing.Callable[[], float], name: str = ""):
        self.name = name
        self.fn = fn

    def value(self) -> float:
        return self.fn()

    def sample_fields(self) -> dict:
        return {"value": self.fn()}

    def as_dict(self) -> dict:
        return self.sample_fields()


class StreamHub:
    """Registry of the streaming series of one simulation run."""

    def __init__(self, sim: "Simulator", window: float = 1.0):
        self.sim = sim
        self.window = window
        self._series: dict[str, typing.Any] = {}
        #: Sorted (name, series) pairs, rebuilt on registration: the
        #: sampler reads every series every tick, so the sort must not
        #: happen per tick.
        self._ordered: list[tuple[str, typing.Any]] = []

    # -- registration ---------------------------------------------------
    def _register(self, name: str, series):
        if name in self._series:
            raise ConfigError(f"duplicate series name {name!r}")
        self._series[name] = series
        self._ordered = sorted(self._series.items())
        return series

    def _get_or_create(self, cls, name: str):
        """The ``cls`` series named ``name``, created on first use."""
        existing = self._series.get(name)
        if existing is None:
            return self._register(
                name, cls(self.sim, self.window, _BUCKETS, name)
            )
        if existing.kind != cls.kind:
            raise ConfigError(
                f"series {name!r} is a {existing.kind}, not a {cls.kind}"
            )
        return existing

    def counter(self, name: str) -> CounterSeries:
        return self._get_or_create(CounterSeries, name)

    def tally(self, name: str) -> TallySeries:
        return self._get_or_create(TallySeries, name)

    def latency(self, name: str) -> LatencySeries:
        return self._get_or_create(LatencySeries, name)

    def gauge(self, name: str, fn: typing.Callable[[], float]) -> GaugeSeries:
        return self._register(name, GaugeSeries(fn, name))

    def names(self) -> list[str]:
        return sorted(self._series)

    def get(self, name: str):
        return self._series[name]

    def __contains__(self, name: str) -> bool:
        return name in self._series

    def __len__(self) -> int:
        return len(self._series)

    # -- sampling -------------------------------------------------------
    def rows(self) -> list[dict]:
        """One sampled row per series, in sorted series order."""
        out = []
        for name, series in self._ordered:
            row = {"series": name, "kind": series.kind}
            row.update(series.sample_fields())
            out.append(row)
        return out


# -- hot-path adapters ----------------------------------------------------
class CacheStream:
    """Redirector/space hooks: hits, misses, admissions, evictions.

    One shared instance serves both the Redirector and the CacheSpace;
    counters carry bytes as their weight (count = events).
    """

    __slots__ = ("read_hits", "write_hits", "read_misses", "admissions",
                 "bounces", "lazy_marks", "evictions")

    def __init__(self, hub: StreamHub):
        self.read_hits = hub.counter("cache.read_hits")
        self.write_hits = hub.counter("cache.write_hits")
        self.read_misses = hub.counter("cache.read_misses")
        self.admissions = hub.counter("cache.admissions")
        self.bounces = hub.counter("cache.bounces")
        self.lazy_marks = hub.counter("cache.lazy_fetch_marks")
        self.evictions = hub.counter("cache.evictions")

    def hit(self, op: str, nbytes: int) -> None:
        if op == "write":
            self.write_hits.add(nbytes)
        else:
            self.read_hits.add(nbytes)

    def read_miss(self, nbytes: int, marked: bool) -> None:
        self.read_misses.add(nbytes)
        if marked:
            self.lazy_marks.add(nbytes)

    def admitted(self, nbytes: int) -> None:
        self.admissions.add(nbytes)

    def bounced(self, nbytes: int) -> None:
        self.bounces.add(nbytes)

    def evicted(self, nbytes: int) -> None:
        self.evictions.add(nbytes)


class ServerStream:
    """File-server hooks: queue depth at arrival, device busy-time.

    Both signals share one (arrival, depth, done, elapsed) quadruplet
    buffer, so the per-request hook is a single call at completion;
    the quads fan out to the two series on flush with their original
    timestamps (depth stamped at arrival, service at completion).
    """

    __slots__ = ("queue_depth", "service", "_buf")

    def __init__(self, hub: StreamHub, name: str):
        self.queue_depth = hub.tally(f"server.{name}.queue_depth")
        self.service = hub.latency(f"server.{name}.service_time")
        self._buf: list[float] = []
        self.queue_depth.flushers.append(self._flush)
        self.service.flushers.append(self._flush)

    def record(self, arrival: float, depth: int,
               done: float, elapsed: float) -> None:
        buf = self._buf
        buf.append(arrival)
        buf.append(depth)
        buf.append(done)
        buf.append(elapsed)
        if len(buf) >= _BUFFER_CAP:
            self._flush()

    def _flush(self) -> None:
        buf = self._buf
        if not buf:
            return
        self._buf = []
        self.queue_depth.observe_many(buf[0::4], buf[1::4])
        self.service.observe_many(buf[2::4], buf[3::4])


class DeviceStream:
    """Device hooks: per-op busy seconds and bytes moved.

    Both counters share one (time, bytes, elapsed) triplet buffer so
    the per-op hook is a single call; the triplets fan out to the two
    counters on flush.
    """

    __slots__ = ("busy", "ops", "_clock", "_buf")

    def __init__(self, hub: StreamHub, name: str):
        self.busy = hub.counter(f"device.{name}.busy_time")
        self.ops = hub.counter(f"device.{name}.bytes")
        self._clock = hub.sim
        self._buf: list[float] = []
        self.busy.flushers.append(self._flush)
        self.ops.flushers.append(self._flush)

    def record(self, op: str, nbytes: int, elapsed: float) -> None:
        buf = self._buf
        buf.append(self._clock.now)
        buf.append(nbytes)
        buf.append(elapsed)
        if len(buf) >= _BUFFER_CAP:
            self._flush()

    def _flush(self) -> None:
        buf = self._buf
        if not buf:
            return
        self._buf = []
        times = buf[0::3]
        self.ops.add_many(times, buf[1::3])
        self.busy.add_many(times, buf[2::3])


def attach_cluster(cluster: "Cluster", hub: StreamHub) -> None:
    """Wire hub-backed adapters into a built cluster's hot paths.

    Idempotent per cluster build: each component's ``stream`` slot is
    simply replaced.  Components left with ``stream = None`` (the
    default) pay nothing.
    """
    middleware = cluster.middleware
    if middleware is not None:
        cache_stream = CacheStream(hub)
        middleware.redirector.stream = cache_stream
        middleware.space.stream = cache_stream
        middleware.stream = hub.latency("mw.request_latency")
        metrics = middleware.metrics
        hub.gauge("cache.read_hit_ratio", lambda: metrics.read_hit_ratio)
        hub.gauge("cache.write_hit_ratio", lambda: metrics.write_hit_ratio)
        hub.gauge("cache.admission_ratio", lambda: metrics.admission_ratio)
        cpfs_round = hub.latency("pfs.cpfs.round_latency")
        for client in middleware.cpfs_clients:
            client.stream = cpfs_round
        middleware._mover_cpfs.stream = cpfs_round

    opfs_round = hub.latency("pfs.opfs.round_latency")
    for client in cluster.direct.clients:
        client.stream = opfs_round
    if middleware is not None:
        middleware._mover_opfs.stream = opfs_round

    for server in list(cluster.dservers) + list(cluster.cservers):
        server.stream = ServerStream(hub, server.name)
        # Devices are named by their server (device names are generic
        # "hdd"/"ssd" and would collide across servers).
        server.device.stream = DeviceStream(hub, server.name)
