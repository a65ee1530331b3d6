"""A parallel file server: OS cache + storage device behind a queue."""

from __future__ import annotations

import typing

from ..devices.base import OP_READ, OP_WRITE, StorageDevice
from ..sim import PriorityResource
from ..sim.monitor import IntervalLog
from ..sim.resources import PRIORITY_NORMAL
from .oscache import OSCache, OSCacheSpec

if typing.TYPE_CHECKING:  # pragma: no cover
    from ..obs import TraceContext
    from ..sim import Simulator


class FileServer:
    """One file server (a DServer or CServer).

    The request path is: per-request software cost (request parsing,
    buffer management — ``software_overhead``), then the OS cache
    model (:class:`~repro.pfs.oscache.OSCache`: readahead for reads,
    write-behind with backpressure for writes), then the device.  HDD
    servers get the OS cache by default — without it, interleaved
    sequential streams would degrade to seek-bound behaviour real
    servers do not show; SSD servers are served synchronously (their
    devices are locality-blind and fast, and a conservative model
    keeps the cache's measured gains honest).

    Device operations — foreground misses, background write-back and
    prefetches, and everything on non-cached servers — share one
    priority queue, which is also how the Rebuilder's low-priority
    reorganisation I/O (§III.F) yields to application requests.
    """

    def __init__(
        self,
        sim: "Simulator",
        name: str,
        device: StorageDevice,
        software_overhead: float = 80e-6,
        os_cache: bool | None = None,
        os_cache_spec: OSCacheSpec | None = None,
    ):
        self.sim = sim
        self.name = name
        self.device = device
        self.software_overhead = software_overhead
        self.queue = PriorityResource(sim, capacity=1, name=f"{name}.dev")
        self.busy_log = IntervalLog()
        self.requests_served = 0
        self.bytes_served = 0
        #: Optional streaming hooks (a ServerStream); None costs nothing.
        self.stream = None
        self._rng = sim.rng.stream(f"server:{name}")
        if os_cache is None:
            os_cache = device.kind == "hdd"
        self.os_cache: OSCache | None = None
        if os_cache:
            self.os_cache = OSCache(
                sim, device, self._device_op, os_cache_spec, name=name
            )

    def serve(
        self, op: str, offset: int, size: int,
        priority: int = PRIORITY_NORMAL,
        ctx: "TraceContext | None" = None,
    ):
        """Process generator serving one sub-request.

        Returns the elapsed foreground time (absorbed writes return
        quickly; their device work continues in the background).
        """
        sim = self.sim
        start = sim.now
        overhead = self.software_overhead
        span = None
        if ctx is not None:
            span = ctx.begin("service", cat="server", component=self.name,
                             op=op, size=size)
            ctx = ctx.under(span)
        try:
            if not sim.advance(overhead):
                yield sim.timeout(overhead)
            os_cache = self.os_cache
            if os_cache is not None:
                if op == OP_WRITE:
                    if os_cache.absorb(offset, size):
                        yield from os_cache.throttle(size, ctx)
                elif op == OP_READ:
                    yield from os_cache.read(offset, size, priority, ctx)
                else:  # defensive: let the device reject unknown ops
                    yield from self._device_op(op, offset, size, priority,
                                               ctx)
            else:
                yield from self._device_op(op, offset, size, priority, ctx)
        finally:
            if span is not None:
                ctx.end(span)
        self.requests_served += 1
        self.bytes_served += size
        return sim.now - start

    def _device_op(self, op: str, offset: int, size: int, priority: int,
                   ctx: "TraceContext | None" = None):
        """Queue + execute one device operation (shared by all paths)."""
        sim = self.sim
        stream = self.stream
        if stream is not None:
            arrival = sim.now
            stream.queue_depth.observe(self.queue.queue_length)
        wait_span = dev_span = None
        if ctx is not None:
            wait_span = ctx.begin("queue_wait", cat="server",
                                  component=self.name, op=op)
        grant = self.queue.acquire(priority)
        if not sim.take(grant):
            yield grant
        if ctx is not None:
            ctx.end(wait_span, queue_length=self.queue.queue_length)
            dev_span = ctx.begin(
                "device_service", cat="device",
                component=f"{self.name}/{self.device.name}",
                op=op, size=size,
            )
        start = sim.now
        try:
            elapsed = self.device.service_time(op, offset, size, self._rng)
            if not sim.advance(elapsed):
                yield sim.timeout(elapsed)
        finally:
            if dev_span is not None:
                ctx.end(dev_span)
            self.queue.release(grant)
        self.busy_log.record(start, sim.now, op)
        if stream is not None:
            stream.device_latency.observe(sim.now - arrival)

    def utilisation(self) -> float:
        """Fraction of elapsed simulation time the device was busy."""
        if self.sim.now <= 0:
            return 0.0
        return self.busy_log.busy_time() / self.sim.now

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<FileServer {self.name} ({self.device.kind})>"
