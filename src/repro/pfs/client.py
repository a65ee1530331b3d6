"""PFS client: split a file request, issue sub-requests, gather replies."""

from __future__ import annotations

import dataclasses
import typing

from ..devices.base import OP_READ, OP_WRITE
from ..errors import PFSError
from ..network import Fabric
from ..sim.resources import PRIORITY_NORMAL
from .content import next_stamp
from .filesystem import PFS, PFSFile
from .layout import coalesce_subrequests, split_request

if typing.TYPE_CHECKING:  # pragma: no cover
    from ..obs import TraceContext
    from ..sim import Simulator

#: Bytes of protocol header per PFS message (request/ack framing).
HEADER_BYTES = 256


@dataclasses.dataclass(slots=True)
class IOResult:
    """Outcome of one parallel file request."""

    op: str
    path: str
    offset: int
    size: int
    start_time: float
    end_time: float
    #: Number of servers the request actually touched.
    servers_touched: int
    #: For reads: (seg_start, seg_end, stamp|None) content segments.
    segments: list[tuple[int, int, int | None]] = dataclasses.field(
        default_factory=list
    )
    #: For writes: the stamp this write put on the file.
    stamp: int | None = None
    #: Bytes the CServers moved for this request; set by the caching
    #: layers, 0 on the stock path.
    cserver_bytes: int = 0

    @property
    def elapsed(self) -> float:
        return self.end_time - self.start_time


class PFSClient:
    """Client-side access to one PFS from one network endpoint.

    Each compute node (MPI rank host) owns a client per file system.
    A request is split by the striping layout, every sub-request flows
    request-over-network -> server device -> response-over-network, and
    all sub-requests proceed in parallel (the source of the parallelism
    that makes DServers competitive for large requests).

    A request that leaves some server with more than one stripe
    fragment has each server's locally-contiguous fragments merged
    into one wire message per server round (ROMIO-style per-server
    coalescing): same bytes and device addresses, fewer messages and
    fewer simulated events.

    The sub-requests run through :meth:`Simulator.gather`, which runs
    a lone one inline in the caller.  ``spawn_flows=True`` gives every
    sub-request its own process instead, so a caller killed mid-request
    leaves its sub-requests running to completion.  Only the
    Rebuilder's two mover clients set it: ``Rebuilder.stop()`` kills
    movements mid-I/O.
    """

    def __init__(
        self, sim: "Simulator", pfs: PFS, fabric: Fabric, endpoint: str,
        spawn_flows: bool = False,
    ):
        self.sim = sim
        self.pfs = pfs
        self.fabric = fabric
        self.endpoint = endpoint
        self.spawn_flows = spawn_flows
        # The layout every request is split by, read once (a PFS's
        # servers and stripe size are fixed at construction).
        self._stripe = pfs.stripe_size
        self._num_servers = pfs.num_servers
        fabric.add_endpoint(endpoint)
        for server in pfs.servers:
            fabric.add_endpoint(server.name)
        self.requests_issued = 0
        self.bytes_moved = 0
        #: Sub-requests actually put on the wire.
        self.subrequests_issued = 0
        #: Stripe fragments absorbed by coalescing.
        self.subrequests_coalesced = 0
        #: Optional streaming round-latency series (shared per PFS);
        #: None costs nothing.
        self.stream = None

    # -- public API -----------------------------------------------------
    def read(
        self,
        handle: PFSFile,
        offset: int,
        size: int,
        priority: int = PRIORITY_NORMAL,
        ctx: "TraceContext | None" = None,
    ):
        """Process generator; returns an :class:`IOResult` with stamps."""
        return self._io(OP_READ, handle, offset, size, priority, None, ctx)

    def write(
        self,
        handle: PFSFile,
        offset: int,
        size: int,
        priority: int = PRIORITY_NORMAL,
        stamp: int | None = None,
        ctx: "TraceContext | None" = None,
    ):
        """Process generator; returns an :class:`IOResult`.

        ``stamp`` identifies the written data for consistency tracking;
        a fresh one is minted if not supplied (e.g. when copying data,
        the mover passes the source stamp through).
        """
        return self._io(OP_WRITE, handle, offset, size, priority, stamp, ctx)

    # -- internals --------------------------------------------------------
    def _io(
        self,
        op: str,
        handle: PFSFile,
        offset: int,
        size: int,
        priority: int,
        stamp: int | None,
        ctx: "TraceContext | None" = None,
    ):
        if size <= 0:
            raise PFSError(f"request size must be positive: {size}")
        start = self.sim.now
        subs = split_request(offset, size, self._stripe, self._num_servers)
        count = len(subs)
        if count > self._num_servers:
            subs = coalesce_subrequests(subs)
            self.subrequests_coalesced += count - len(subs)
            count = len(subs)
        self.subrequests_issued += count
        span = None
        sub_ctx = None
        if ctx is not None:
            # Named by its file system, so a breakdown splits DServer
            # time from CServer time.
            span = ctx.begin(
                "pfs_io:" + self.pfs.name, cat="pfs", component="app",
                fs=self.pfs.name, size=size, endpoint=self.endpoint,
                sub_requests=count,
            )
            sub_ctx = ctx.under(span)
        # One shared debug name per request (not per sub-request), and
        # only when processes are spawned to carry it: a lone
        # sub-request runs inline in the caller and needs none.
        flow_name = (f"{op}:{handle.name}"
                     if self.spawn_flows or count > 1 else "")
        try:
            if self.spawn_flows:
                yield self.sim.all_of(self.sim.spawn_many(
                    (self._sub_flow(op, handle, sub, priority, sub_ctx)
                     for sub in subs),
                    name=flow_name,
                ))
            else:
                yield from self.sim.gather(
                    [self._sub_flow(op, handle, sub, priority, sub_ctx)
                     for sub in subs],
                    name=flow_name,
                )
        finally:
            if span is not None:
                ctx.end(span)

        self.requests_issued += 1
        self.bytes_moved += size
        if self.stream is not None:
            self.stream.observe(self.sim.now - start)
        if op == OP_WRITE:
            stamp = stamp if stamp is not None else next_stamp()
            handle.content.write(offset, size, stamp)
            handle.size = max(handle.size, offset + size)
            segments = []
        else:
            stamp = None
            segments = handle.content.read(offset, size)
        touched = 1 if count == 1 else len({sub.server for sub in subs})
        return IOResult(op, handle.name, offset, size, start, self.sim.now,
                        touched, segments, stamp)

    def _sub_flow(self, op, handle: PFSFile, sub, priority, ctx=None):
        """One sub-request's full round trip."""
        server = self.pfs.servers[sub.server]
        address = handle.local_address(sub.server, sub.local_offset, sub.length)
        span = None
        if ctx is not None:
            span = ctx.begin(
                "sub_request", cat="pfs", component=server.name,
                op=op, size=sub.length,
            )
            ctx = ctx.under(span)
        try:
            if op == OP_WRITE:
                # Data travels with the request; small ack returns.
                yield from self.fabric.transfer(
                    self.endpoint, server.name, HEADER_BYTES + sub.length,
                    priority, ctx=ctx,
                )
                yield from server.serve(op, address, sub.length, priority,
                                        ctx=ctx)
                yield from self.fabric.transfer(
                    server.name, self.endpoint, HEADER_BYTES, priority,
                    ctx=ctx,
                )
            else:
                # Small request out; data travels back.
                yield from self.fabric.transfer(
                    self.endpoint, server.name, HEADER_BYTES, priority,
                    ctx=ctx,
                )
                yield from server.serve(op, address, sub.length, priority,
                                        ctx=ctx)
                yield from self.fabric.transfer(
                    server.name, self.endpoint, HEADER_BYTES + sub.length,
                    priority, ctx=ctx,
                )
        finally:
            if span is not None:
                ctx.end(span)
        return sub.length
