"""Build a runnable simulated testbed from a :class:`ClusterSpec`."""

from __future__ import annotations

import dataclasses

from ..core import CostModel, S4DCacheMiddleware, make_policy
from ..devices import HDD, SSD
from ..errors import ConfigError
from ..mpiio import DirectIO, IOLayer
from ..network import Fabric
from ..pfs import PFS, FileServer, PFSSpec
from ..sim import Simulator
from ..units import parse_size
from .calibrate import calibrate_cost_params
from .spec import ClusterSpec


@dataclasses.dataclass
class Cluster:
    """A built testbed ready to run MPI jobs."""

    spec: ClusterSpec
    sim: Simulator
    fabric: Fabric
    opfs: PFS
    cpfs: PFS | None
    direct: DirectIO
    middleware: S4DCacheMiddleware | None

    @property
    def layer(self) -> IOLayer:
        """The I/O layer jobs should run against."""
        return self.middleware if self.middleware is not None else self.direct

    @property
    def dservers(self) -> list[FileServer]:
        return self.opfs.servers

    @property
    def cservers(self) -> list[FileServer]:
        return self.cpfs.servers if self.cpfs is not None else []

    @property
    def metrics(self):
        return self.middleware.metrics if self.middleware else None


def build_cluster(
    spec: ClusterSpec,
    s4d: bool = True,
    cache_capacity: int | str | None = None,
    policy: str | None = None,
) -> Cluster:
    """Assemble devices, network, both PFSs and the I/O layer.

    ``s4d=False`` builds the stock I/O system (pure DirectIO, no
    middleware — the paper's baseline).  ``cache_capacity`` overrides
    the spec (an int/size-string); ``policy`` overrides the admission
    policy.
    """
    sim = Simulator(seed=spec.seed)
    fabric = Fabric(sim, spec.network)

    dservers = [
        FileServer(sim, f"dserver{i}", HDD(spec.hdd), spec.server_overhead)
        for i in range(spec.num_dservers)
    ]
    opfs = PFS(sim, "opfs", dservers, PFSSpec(stripe_size=spec.d_stripe))
    direct = DirectIO(sim, opfs, fabric, num_nodes=spec.num_nodes)

    if not s4d:
        return Cluster(spec, sim, fabric, opfs, None, direct, None)

    if spec.num_cservers < 1:
        raise ConfigError("an S4D cluster needs at least one CServer")
    cservers = [
        FileServer(sim, f"cserver{i}", SSD(spec.ssd), spec.server_overhead)
        for i in range(spec.num_cservers)
    ]
    cpfs = PFS(sim, "cpfs", cservers, PFSSpec(stripe_size=spec.c_stripe))

    if cache_capacity is None:
        capacity = spec.cache_capacity if spec.cache_capacity is not None else 0
    else:
        capacity = parse_size(cache_capacity)

    cost_model = CostModel(calibrate_cost_params(spec))
    middleware = S4DCacheMiddleware(
        sim,
        direct,
        cpfs,
        cost_model,
        capacity=capacity,
        policy=make_policy(policy if policy is not None else spec.policy),
        lookup_overhead=spec.lookup_overhead,
        metadata_sync_cost=spec.metadata_sync_cost,
        rebuild_interval=spec.rebuild_interval,
        rebuild_budget=spec.rebuild_budget,
        metadata_shards=spec.metadata_shards,
    )
    return Cluster(spec, sim, fabric, opfs, cpfs, direct, middleware)
