"""Cluster configuration."""

from __future__ import annotations

import dataclasses

from ..core.policy import make_policy
from ..devices import HDDSpec, SSDSpec
from ..errors import ConfigError
from ..network import NetworkSpec
from ..units import KiB, parse_size

__all__ = ["ClusterSpec"]


@dataclasses.dataclass(frozen=True)
class ClusterSpec:
    """Everything needed to build a simulated testbed.

    The defaults are the paper's §V.A testbed: 32 compute nodes, eight
    HDD-backed DServers, four SSD-backed CServers, Gigabit Ethernet and
    PVFS2 with its default 64 KB stripe.  Device parameters approximate
    the SEAGATE ST32502NS and an entry-level OCZ RevoDrive X2 (see
    DESIGN.md for the calibration notes).
    """

    num_dservers: int = 8
    num_cservers: int = 4
    num_nodes: int = 32
    hdd: HDDSpec = dataclasses.field(default_factory=HDDSpec)
    ssd: SSDSpec = dataclasses.field(default_factory=SSDSpec)
    network: NetworkSpec = dataclasses.field(default_factory=NetworkSpec)
    d_stripe: int = 64 * KiB
    c_stripe: int = 64 * KiB
    #: Per-request server software cost (request parsing, buffers).
    server_overhead: float = 80e-6
    #: Cache capacity; None means "fraction of the workload's data".
    cache_capacity: int | None = None
    #: Used when cache_capacity is None (paper: "20% of the
    #: application's data size").
    cache_fraction: float = 0.20
    #: Admission policy spec ("selective", "always", "never", "size:N").
    policy: str = "selective"
    #: Middleware cost knobs (§V.E.2).
    lookup_overhead: float = 8e-6
    metadata_sync_cost: float = 30e-6
    #: Rebuilder cadence and per-cycle byte budget (§III.F).
    rebuild_interval: float = 0.25
    rebuild_budget: int = 4 * 1024 * 1024
    #: Metadata lock shards per file (§III.D distributed metadata).
    metadata_shards: int = 1
    #: RNG seed for the whole simulation.
    seed: int = 42

    def __post_init__(self) -> None:
        if self.num_dservers < 1 or self.num_nodes < 1:
            raise ConfigError("need at least one DServer and one node")
        if self.num_cservers < 0:
            raise ConfigError("num_cservers must be >= 0")
        if not (0.0 <= self.cache_fraction <= 1.0):
            raise ConfigError("cache_fraction must be within [0, 1]")
        if self.cache_capacity is not None and self.cache_capacity < 0:
            raise ConfigError("cache_capacity must be >= 0")
        if self.d_stripe < 1 or self.c_stripe < 1:
            raise ConfigError("stripe sizes must be positive")
        for cost in (
            "server_overhead", "lookup_overhead", "metadata_sync_cost"
        ):
            if getattr(self, cost) < 0:
                raise ConfigError(f"{cost} must be >= 0")
        if self.rebuild_interval <= 0:
            raise ConfigError("rebuild_interval must be positive")
        if self.rebuild_budget < 1:
            raise ConfigError("rebuild_budget must be >= 1")
        if self.metadata_shards < 1:
            raise ConfigError("metadata_shards must be >= 1")
        make_policy(self.policy)  # raises ConfigError on a bad spec

    @classmethod
    def paper_testbed(cls, **overrides) -> "ClusterSpec":
        """The §V.A configuration (with any keyword overrides)."""
        return cls(**overrides)

    def capacity_for(self, data_bytes: int | str) -> int:
        """The cache capacity to use for a given workload size."""
        if self.cache_capacity is not None:
            return self.cache_capacity
        return int(parse_size(data_bytes) * self.cache_fraction)
