"""The StreamHub: named series registry + hot-path adapters.

A hub owns every streaming series of one simulation run.  Component
hooks (redirector, space manager, file servers, PFS clients,
middleware) hold *direct references* to their series — and cost
exactly nothing when telemetry is off (the ``stream`` attributes stay
None).

Every series keeps its cumulative statistics and one open *window*:
the observations since the sampler's previous sample.  Only
:meth:`StreamHub.rows`, the sampler's read, closes the windows, so
consecutive rows partition a run: a series' ``window_count`` values
sum to its last row's ``count``.  ``as_dict()`` reads without closing
anything.

When telemetry is on, the hot path stays dumb: a counter adds to two
running sums, and a tally appends the value to a flat buffer that
folds into both halves at each sample or when it reaches
``_BUFFER_CAP`` values, so per-series memory stays bounded no matter
the stream length.

Series kinds and their sampled row fields:

- ``counter``  — cumulative count/total, window count/total, rate
- ``tally``    — cumulative and window Welford stats
- ``latency``  — a tally plus P50/P99/P999 from a log histogram
- ``gauge``    — one lazily evaluated value
"""

from __future__ import annotations

import typing

from ...errors import ConfigError
from ...sim.monitor import Counter, Tally
from .stats import DEFAULT_QUANTILES, LogHistogram, moments

if typing.TYPE_CHECKING:  # pragma: no cover
    from ...cluster.builder import Cluster
    from ...devices.base import StorageDevice
    from ...sim import Simulator


#: Values a tally buffers before folding; bounds per-series memory at
#: ``_BUFFER_CAP`` floats regardless of stream length.
_BUFFER_CAP = 4096


class CounterSeries(Counter):
    """A counter as a sampled series: two running sums.

    ``add(amount)`` counts one event of weight ``amount`` (bytes,
    seconds, 1.0 ...).  The window is the difference since the
    previous sample; ``rate`` is window events per sim second since
    then, and 0.0 when no sim time has passed.
    """

    kind = "counter"

    def __init__(self, name: str, clock: "Simulator"):
        super().__init__(name)
        self.clock = clock
        #: (count, total, sim time) at the previous sample.
        self._mark = (0, 0.0, clock.now)

    def as_dict(self) -> dict:
        count = self.count
        total = self.total
        count0, total0, since = self._mark
        window = count - count0
        elapsed = self.clock.now - since
        return {
            "count": count, "total": total, "mean": self.mean,
            "window_count": window, "window_total": total - total0,
            "rate": window / elapsed if elapsed > 0 else 0.0,
        }

    def sample_fields(self) -> dict:
        """The row for this sample; closes the window."""
        row = self.as_dict()
        self._mark = (row["count"], row["total"], self.clock.now)
        return row


class DeviceCounter(CounterSeries):
    """A device's running totals as a counter series, from attach.

    :class:`~repro.devices.base.StorageDevice` already counts requests,
    bytes and busy seconds per op, so this series reads them at sample
    time instead of hooking the op: ``count`` is requests served and
    ``total`` the named running total, both since the series was made.
    """

    def __init__(self, name: str, clock: "Simulator",
                 device: "StorageDevice", attr: str):
        super().__init__(name, clock)
        self._device = device
        self._attr = attr
        self._base = (device.total_requests, getattr(device, attr))

    def as_dict(self) -> dict:
        device = self._device
        self.count = device.total_requests - self._base[0]
        self.total = float(getattr(device, self._attr) - self._base[1])
        return super().as_dict()


class TallySeries:
    """Cumulative and window :class:`~repro.sim.monitor.Tally` halves.

    ``observe`` appends to a flat value buffer; each fold reduces the
    buffer once (:func:`~repro.obs.streaming.stats.moments`) and merges
    the batch into both halves.  Closing the window starts a fresh
    window tally.
    """

    kind = "tally"

    __slots__ = ("name", "cumulative", "window", "_buf")

    def __init__(self, name: str):
        self.name = name
        self.cumulative = Tally(name)
        self.window = Tally(name)
        self._buf: list[float] = []

    def observe(self, value: float) -> None:
        buf = self._buf
        buf.append(value)
        if len(buf) >= _BUFFER_CAP:
            self._fold()

    def _fold(self) -> None:
        buf = self._buf
        if buf:
            self._buf = []
            self._merge(buf)

    def _merge(self, values: list[float]) -> None:
        batch = moments(values)
        self.cumulative.merge(*batch)
        self.window.merge(*batch)

    def as_dict(self) -> dict:
        self._fold()
        return self._row()

    def sample_fields(self) -> dict:
        """The row for this sample; closes the window."""
        row = self.as_dict()
        self.window = Tally(self.name)
        return row

    def _row(self) -> dict:
        total, window = self.cumulative, self.window
        return {
            "count": total.count, "mean": total.mean, "stdev": total.stdev,
            "min": total.minimum, "max": total.maximum,
            "window_count": window.count, "window_mean": window.mean,
            "window_max": window.maximum,
        }


class LatencySeries(TallySeries):
    """A tally series that also reports P50/P99/P999.

    Each folded batch also goes into one
    :class:`~repro.obs.streaming.stats.LogHistogram`, whose quantiles
    are cumulative over the run.
    """

    kind = "latency"

    __slots__ = ("histogram",)

    def __init__(self, name: str):
        super().__init__(name)
        self.histogram = LogHistogram()

    def _merge(self, values: list[float]) -> None:
        super()._merge(values)
        self.histogram.observe_many(values)

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

    def __init__(self, sim: "Simulator"):
        self.sim = sim
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

    def _get_or_create(self, cls, name: str, *args):
        """The ``cls`` series named ``name``, created on first use."""
        existing = self._series.get(name)
        if existing is None:
            return self._register(name, cls(name, *args))
        if existing.kind != cls.kind:
            raise ConfigError(
                f"series {name!r} is a {existing.kind}, not a {cls.kind}"
            )
        return existing

    def counter(self, name: str) -> CounterSeries:
        return self._get_or_create(CounterSeries, name, self.sim)

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
        """One row per series, in sorted series order.

        Closes every series' window: the sampler is the only caller.
        """
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
    """File-server hooks: queue depth and device-op latency.

    :meth:`repro.pfs.server.FileServer._device_op` observes the queue
    depth when a request arrives and its latency (queue wait plus
    service) when it completes.
    """

    __slots__ = ("queue_depth", "device_latency")

    def __init__(self, hub: StreamHub, name: str):
        self.queue_depth = hub.tally(f"server.{name}.queue_depth")
        self.device_latency = hub.latency(f"server.{name}.device_latency")


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
        for series, attr in (("busy_time", "total_busy_time"),
                             ("bytes", "total_bytes")):
            name = f"device.{server.name}.{series}"
            hub._register(
                name, DeviceCounter(name, hub.sim, server.device, attr)
            )
