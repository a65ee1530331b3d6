"""A single full-duplex network endpoint (NIC)."""

from __future__ import annotations

import typing

from ..errors import NetworkError
from ..sim import PriorityResource

if typing.TYPE_CHECKING:  # pragma: no cover
    from ..sim import Simulator


class Link:
    """One endpoint's NIC, modelled as a pair of serialised channels.

    Transfers occupy the sender's TX channel and the receiver's RX
    channel for ``size / bandwidth`` seconds, so concurrent flows
    through one endpoint queue up — giving the many-clients-per-server
    contention the IOR scaling test (Fig. 7) relies on.
    """

    def __init__(self, sim: "Simulator", name: str, bandwidth: float):
        if bandwidth <= 0:
            raise NetworkError(f"link bandwidth must be positive: {bandwidth}")
        self.sim = sim
        self.name = name
        self.bandwidth = bandwidth
        self.tx = PriorityResource(sim, capacity=1, name=f"{name}.tx")
        self.rx = PriorityResource(sim, capacity=1, name=f"{name}.rx")
        self.bytes_sent = 0
        self.bytes_received = 0

    def telemetry(self) -> dict:
        """Registry hook: this NIC's counters and live queue state."""
        return {
            "bandwidth": self.bandwidth,
            "bytes_sent": self.bytes_sent,
            "bytes_received": self.bytes_received,
            "tx_queue": self.tx.queue_length,
            "rx_queue": self.rx.queue_length,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Link {self.name} {self.bandwidth / 1e6:.0f}MB/s>"
