"""CARL: cost-aware region-level data placement (paper ref [26]).

The paper positions S4D-Cache against the authors' own earlier system:
"Our previous work CARL similarly uses the global data information and
SSDs to boost performance.  However, the SSD-based servers are used as
*persistent storage* instead of cache" (§II.C).  This module provides
that comparator so the trade-off is measurable:

- CARL divides each file into fixed-size **regions**, scores every
  region by the summed cost benefit of the (profiled) requests that
  touch it, and *statically places* the top regions on the SSD servers
  within a space budget;
- placed regions live on the SSD servers permanently — there is no
  admission, no write-back, no eviction, and therefore no adaptivity:
  if the access pattern shifts after placement, the placement is
  simply wrong until a new profiling pass re-places the data.

S4D-Cache's cache semantics trade some steady-state efficiency for
exactly that adaptivity; ``ext_carl`` in :mod:`repro.experiments`
quantifies the comparison on stable and shifting workloads.
"""

from __future__ import annotations

import typing

from ..devices.base import OP_WRITE
from ..errors import ConfigError
from ..intervals import IntervalMap
from ..mpiio.api import DirectIO, FileHandle, IOLayer
from ..pfs import PFS, IOResult, PFSClient
from ..pfs.content import merge_stamp_segments, next_stamp
from ..sim.resources import PRIORITY_NORMAL
from ..units import parse_size
from .cost_model import CostModel

if typing.TYPE_CHECKING:  # pragma: no cover
    from ..sim import Simulator
    from ..workloads import Workload


class RegionPlan:
    """The outcome of a CARL profiling pass: which regions go to SSD."""

    def __init__(self, region_size: int):
        if region_size < 1:
            raise ConfigError("region size must be positive")
        self.region_size = region_size
        #: path -> set of region indices placed on the SSD servers.
        self.placed: dict[str, set[int]] = {}
        #: Total bytes placed.
        self.placed_bytes = 0

    def place(self, path: str, region: int) -> None:
        regions = self.placed.setdefault(path, set())
        if region not in regions:
            regions.add(region)
            self.placed_bytes += self.region_size

    def regions_for(self, path: str) -> set[int]:
        return set(self.placed.get(path, ()))


def plan_placement(
    workloads: typing.Sequence["Workload"],
    cost_model: CostModel,
    budget: int | str,
    region_size: int | str = 1024 * 1024,
    op: str = OP_WRITE,
) -> RegionPlan:
    """CARL's offline step: score regions from a profiled trace.

    The "trace" here is the workload description itself (CARL profiles
    a run and assumes later runs repeat it — the same §V.A assumption
    S4D's read methodology uses).  Each request contributes its
    modelled benefit ``B`` to every region it touches; regions are
    placed greedily by benefit density until the budget is spent.
    """
    budget = parse_size(budget)
    region_size = parse_size(region_size)
    plan = RegionPlan(region_size)
    scores: dict[tuple[str, int], float] = {}
    for workload in workloads:
        for rank in range(workload.processes):
            last_end: int | None = None
            for offset, size in workload.segments_for_rank(rank):
                distance = (
                    1 << 40 if last_end is None else abs(offset - last_end)
                )
                last_end = offset + size
                benefit = cost_model.benefit(op, offset, size, distance)
                if benefit <= 0:
                    continue
                first = offset // region_size
                last = (offset + size - 1) // region_size
                for region in range(first, last + 1):
                    key = (workload.path, region)
                    scores[key] = scores.get(key, 0.0) + benefit
    for (path, region), _score in sorted(
        scores.items(), key=lambda kv: -kv[1]
    ):
        if plan.placed_bytes + region_size > budget:
            break
        plan.place(path, region)
    return plan


class CARLPlacementLayer(IOLayer):
    """Serve requests from the statically planned region placement."""

    def __init__(
        self,
        sim: "Simulator",
        direct: DirectIO,
        cpfs: PFS,
        plan: RegionPlan,
        lookup_overhead: float = 8e-6,
    ):
        self.sim = sim
        self.direct = direct
        self.cpfs = cpfs
        self.plan = plan
        self.lookup_overhead = lookup_overhead
        self._cpfs_clients = [
            PFSClient(sim, cpfs, direct.fabric, direct.node_for(node))
            for node in range(direct.num_nodes)
        ]
        #: path -> interval map marking SSD-resident byte ranges.
        self._placement: dict[str, IntervalMap] = {}
        for path, regions in plan.placed.items():
            index = IntervalMap()
            for region in sorted(regions):
                start = region * plan.region_size
                index.set(start, start + plan.region_size, True)
            self._placement[path] = index
        self.requests_to_ssd = 0
        self.requests_to_hdd = 0

    # -- plumbing ---------------------------------------------------------
    @staticmethod
    def ssd_path(path: str) -> str:
        return f"{path}.carl"

    # -- IOLayer ------------------------------------------------------------
    def open(self, rank: int, path: str, size_hint: int):
        handle = yield from self.direct.open(rank, path, size_hint)
        ssd = self.ssd_path(path)
        if not self.cpfs.exists(ssd):
            # The SSD file mirrors the original's address space for the
            # placed regions (sparse elsewhere).
            self.cpfs.create(ssd, max(size_hint, 1))
        # The original file rides on ``handle.pfs_file`` (set by the
        # direct open); with the SSD file here too, a request resolves
        # no file name.
        handle.private["carl_ssd_file"] = self.cpfs.open(ssd)
        return handle

    def close(self, rank: int, handle: FileHandle):
        yield from self.direct.close(rank, handle)

    def io(self, rank: int, handle: FileHandle, op: str, offset: int,
           size: int, priority: int = PRIORITY_NORMAL, ctx=None):
        yield self.sim.timeout(self.lookup_overhead)
        index = self._placement.get(handle.path)
        segments = (
            index.lookup(offset, offset + size)
            if index is not None
            else [(offset, offset + size, None)]
        )
        stamp = next_stamp() if op == OP_WRITE else None
        d_handle = handle.pfs_file
        s_handle = handle.private["carl_ssd_file"]

        start = self.sim.now
        results = yield from self.sim.gather(
            [
                self._segment_flow(
                    rank, op, seg_start, seg_end - seg_start, bool(placed),
                    d_handle, s_handle, stamp, priority, ctx,
                )
                for seg_start, seg_end, placed in segments
            ],
            name=f"carl:{op}",
        )

        merged = []
        for res in results:
            merged += res.segments
        merged = merge_stamp_segments(merged)
        result = IOResult(
            op=op, path=handle.path, offset=offset, size=size,
            start_time=start, end_time=self.sim.now,
            servers_touched=max((r.servers_touched for r in results),
                                default=0),
            segments=merged, stamp=stamp,
            cserver_bytes=sum(end - begin for begin, end, placed in segments
                              if placed),
        )
        if op == OP_WRITE:
            d_handle.size = max(d_handle.size, offset + size)
        return result

    def _segment_flow(self, rank, op, seg_offset, seg_size, placed,
                      d_handle, s_handle, stamp, priority, ctx=None):
        if placed:
            client = self._cpfs_clients[rank % self.direct.num_nodes]
            target = s_handle
            self.requests_to_ssd += 1
        else:
            client = self.direct.client_for(rank)
            target = d_handle
            self.requests_to_hdd += 1
        if op == OP_WRITE:
            result = yield from client.write(
                target, seg_offset, seg_size, priority, stamp=stamp, ctx=ctx
            )
        else:
            result = yield from client.read(
                target, seg_offset, seg_size, priority, ctx=ctx
            )
        return result
