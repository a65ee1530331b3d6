"""The fabric: named endpoints plus a transfer primitive."""

from __future__ import annotations

import dataclasses
import typing

from ..errors import ConfigError, NetworkError
from ..sim.resources import PRIORITY_NORMAL
from ..units import MiB
from .link import Link

if typing.TYPE_CHECKING:  # pragma: no cover
    from ..obs import TraceContext
    from ..sim import Simulator


@dataclasses.dataclass(frozen=True)
class NetworkSpec:
    """Fabric parameters.

    Defaults approximate the paper's Gigabit Ethernet: ~117 MB/s of
    useful payload bandwidth per endpoint and tens of microseconds of
    one-way latency (switch + stack).
    """

    #: Payload bandwidth per endpoint, bytes/second.
    bandwidth: float = 117 * MiB
    #: One-way message latency, seconds.
    latency: float = 60e-6

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise ConfigError("network bandwidth must be positive")
        if self.latency < 0:
            raise ConfigError("network latency must be non-negative")


class Fabric:
    """A switched network of named endpoints.

    The switch is assumed non-blocking (typical for a cluster GigE
    switch at this scale); only endpoint NICs contend.  A transfer from
    A to B holds A's TX and B's RX channels for the wire time at the
    slower endpoint rate, plus one propagation latency.
    """

    def __init__(self, sim: "Simulator", spec: NetworkSpec | None = None):
        self.sim = sim
        self.spec = spec or NetworkSpec()
        self._links: dict[str, Link] = {}
        self.total_transfers = 0
        self.total_bytes = 0

    def add_endpoint(self, name: str, bandwidth: float | None = None) -> Link:
        """Register an endpoint NIC; idempotent for the same name."""
        existing = self._links.get(name)
        if existing is not None:
            return existing
        link = Link(self.sim, name, bandwidth or self.spec.bandwidth)
        self._links[name] = link
        return link

    def endpoint(self, name: str) -> Link:
        link = self._links.get(name)
        if link is None:
            raise NetworkError(f"unknown network endpoint {name!r}")
        return link

    def transfer(
        self,
        src: str,
        dst: str,
        size: int,
        priority: int = PRIORITY_NORMAL,
        ctx: "TraceContext | None" = None,
    ):
        """Process generator moving ``size`` payload bytes src -> dst.

        Yields inside; use as ``yield from fabric.transfer(...)`` or
        spawn it.  Returns the completion time.
        """
        if src == dst:
            # Local loopback: no NIC involvement, negligible time.
            return self.sim.now
        # ``endpoint()`` inlined: both lookups run on every hop.
        links = self._links
        sender = links.get(src)
        receiver = links.get(dst)
        if sender is None or receiver is None:
            self.endpoint(src)
            self.endpoint(dst)
        # Span bookkeeping is skipped entirely when tracing is off: the
        # begin/end kwargs would otherwise allocate on every hop of
        # every sub-request (the simulation's most-called generator).
        span = None
        if ctx is not None:
            span = ctx.begin(
                "transfer", cat="network", component=f"nic:{src}",
                src=src, dst=dst, size=size,
            )
        sim = self.sim
        try:
            tx_grant = sender.tx.acquire(priority)
            if not sim.take(tx_grant):
                yield tx_grant
            try:
                rx_grant = receiver.rx.acquire(priority)
                if not sim.take(rx_grant):
                    yield rx_grant
                try:
                    sb = sender.bandwidth
                    rb = receiver.bandwidth
                    delay = self.spec.latency + size / (sb if sb < rb else rb)
                    if not sim.advance(delay):
                        yield sim.timeout(delay)
                finally:
                    receiver.rx.release(rx_grant)
            finally:
                sender.tx.release(tx_grant)
        finally:
            if span is not None:
                ctx.end(span)
        sender.bytes_sent += size
        receiver.bytes_received += size
        self.total_transfers += 1
        self.total_bytes += size
        return self.sim.now

