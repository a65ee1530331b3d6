"""Common interface for storage device timing models."""

from __future__ import annotations

import abc
import random

from ..errors import DeviceError

#: Read operation tag.
OP_READ = "read"
#: Write operation tag.
OP_WRITE = "write"

_VALID_OPS = (OP_READ, OP_WRITE)


class StorageDevice(abc.ABC):
    """A stateful timing model of one storage device.

    Devices are *passive*: they compute how long a request takes and
    update internal state (e.g. the HDD head position).  Queueing and
    concurrency live in the PFS server that owns the device, which calls
    :meth:`service_time` while holding the device resource.
    """

    #: Human-readable device kind ("hdd"/"ssd"); set by subclasses.
    kind: str = "device"

    def __init__(self, capacity_bytes: int, name: str = ""):
        if capacity_bytes <= 0:
            raise DeviceError(f"device capacity must be positive: {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        self.name = name or self.kind
        self.total_requests = 0
        self.total_bytes = 0
        self.total_busy_time = 0.0

    def service_time(
        self, op: str, offset: int, size: int, rng: random.Random | None = None
    ) -> float:
        """Time (seconds) to serve one request; updates device state.

        ``offset`` is the device-local byte address of the request and
        ``size`` its length.  ``rng`` supplies randomness (HDD rotational
        position); when None the expected value is used, which keeps
        analytic tests deterministic.
        """
        self._validate(op, offset, size)
        elapsed = self._service_time(op, offset, size, rng)
        self.total_requests += 1
        self.total_bytes += size
        self.total_busy_time += elapsed
        return elapsed

    @abc.abstractmethod
    def _service_time(
        self, op: str, offset: int, size: int, rng: random.Random | None
    ) -> float:
        """Device-specific timing; subclasses implement this."""

    def reset(self) -> None:
        """Forget mechanical state and statistics (for re-profiling)."""
        self.total_requests = 0
        self.total_bytes = 0
        self.total_busy_time = 0.0

    def telemetry(self) -> dict:
        """Registry hook: lifetime counters of this device."""
        return {
            "kind": self.kind,
            "name": self.name,
            "requests": self.total_requests,
            "bytes": self.total_bytes,
            "busy_time": self.total_busy_time,
        }

    def _validate(self, op: str, offset: int, size: int) -> None:
        if op not in _VALID_OPS:
            raise DeviceError(f"unknown device op {op!r}")
        if offset < 0 or size < 0:
            raise DeviceError(f"negative offset/size: {offset}/{size}")
        if offset + size > self.capacity_bytes:
            raise DeviceError(
                f"request [{offset}, {offset + size}) exceeds device "
                f"capacity {self.capacity_bytes} on {self.name}"
            )
