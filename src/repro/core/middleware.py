"""S4D-Cache as an MPI-IO plug-in (§III.A, §IV.B).

The middleware implements :class:`~repro.mpiio.api.IOLayer`, wrapping
the stock :class:`~repro.mpiio.api.DirectIO` path exactly the way the
paper modifies ROMIO:

- ``MPI_File_open``  -> also open/create the correlating cache file in
  the CPFS and load the DMT;
- ``MPI_File_read``  -> evaluate the benefit, admit to the CDT, serve
  hits from CServers, set C_flag on critical misses;
- ``MPI_File_write`` -> evaluate the benefit, admit, allocate cache
  space per Algorithm 1, absorb critical writes into CServers;
- ``MPI_File_close`` -> close the cache file; the Rebuilder helper
  stops when the last file closes;
- ``MPI_File_seek``  -> pointer logic lives in
  :class:`~repro.mpiio.api.MPIFile`, unchanged.

"When the requested data does not belong to any cache file and is not
performance-critical, this system acts the same as the default MPI-IO
implementation" — plus the small lookup/metadata overheads that
§V.E.2 (Fig. 11) measures.
"""

from __future__ import annotations

import typing

from ..devices.base import OP_WRITE
from ..errors import CacheError
from ..kvstore import HashDB, LockManager
from ..mpiio.api import DirectIO, FileHandle, IOLayer
from ..obs import NULL_CONTEXT
from ..pfs import PFS, IOResult, PFSClient
from ..pfs.content import merge_stamp_segments, next_stamp
from ..sim.resources import PRIORITY_NORMAL
from .cost_model import CostModel
from .identifier import DataIdentifier
from .metrics import CacheMetrics
from .policy import Policy, SelectivePolicy
from .rebuilder import Rebuilder
from .redirector import Redirector, RouteStep, TO_CSERVERS
from .space import CacheSpace
from .tables import CDT, DMT

if typing.TYPE_CHECKING:  # pragma: no cover
    from ..sim import Simulator


class S4DCacheMiddleware(IOLayer):
    """The complete S4D-Cache runtime."""

    def __init__(
        self,
        sim: "Simulator",
        direct: DirectIO,
        cpfs: PFS,
        cost_model: CostModel,
        capacity: int,
        policy: Policy | None = None,
        lookup_overhead: float = 8e-6,
        metadata_sync_cost: float = 30e-6,
        rebuild_interval: float = 0.25,
        rebuild_budget: int = 4 * 1024 * 1024,
        metadata_shards: int = 1,
    ):
        if capacity < 0:
            raise CacheError(f"cache capacity must be >= 0: {capacity}")
        self.sim = sim
        self.direct = direct
        self.cpfs = cpfs
        self.metrics = CacheMetrics()
        self.policy = policy if policy is not None else SelectivePolicy()
        self.identifier = DataIdentifier(
            cost_model, CDT(), self.policy, self.metrics
        )
        self.dmt = DMT(HashDB("dmt", sync_mode="always"))
        self.space = CacheSpace(capacity)
        self.redirector = Redirector(
            self.dmt, self.identifier.cdt, self.space, self.metrics
        )
        self.locks = LockManager(sim)
        #: §III.D: "Techniques similar to the distributed cache meta
        #: data can also be applied to distribute metadata among the
        #: application processes, so that the communication contention
        #: for accessing metadata can be minimized."  With shards > 1
        #: the per-file metadata lock is partitioned by offset range,
        #: so decisions on disjoint regions proceed concurrently.
        if metadata_shards < 1:
            raise CacheError(f"metadata_shards must be >= 1: {metadata_shards}")
        self.metadata_shards = metadata_shards
        #: Offset span covered by one shard's lock.
        self.shard_span = 256 * 1024 * 1024
        self.lookup_overhead = lookup_overhead
        self.metadata_sync_cost = metadata_sync_cost

        # Cache-side PFS clients: one per compute node (the redirected
        # request is issued by the same node that issued the original),
        # plus a dedicated mover endpoint for the Rebuilder.
        self._cpfs_clients = [
            PFSClient(sim, cpfs, direct.fabric, direct.node_for(node))
            for node in range(direct.num_nodes)
        ]
        self._mover_opfs = PFSClient(sim, direct.pfs, direct.fabric, "mover",
                                     spawn_flows=True)
        self._mover_cpfs = PFSClient(sim, cpfs, direct.fabric, "mover",
                                     spawn_flows=True)
        self.rebuilder = Rebuilder(
            sim,
            self.dmt,
            self.identifier.cdt,
            self.space,
            self._mover_opfs,
            self._mover_cpfs,
            self._resolve_handles,
            self.metrics,
            interval=rebuild_interval,
            budget=rebuild_budget,
        )
        self._open_files = 0
        #: Interned per-rank lock-owner labels (avoids an f-string per
        #: request on the metadata-lock hot path).
        self._owner_names: dict[int, str] = {}
        #: Optional streaming request-latency series; None costs nothing.
        self.stream = None

    # -- plumbing ---------------------------------------------------------
    @property
    def fabric(self):
        return self.direct.fabric

    @property
    def pfs(self):
        """The original PFS (so tools written for DirectIO work)."""
        return self.direct.pfs

    def node_for(self, rank: int) -> str:
        return self.direct.node_for(rank)

    @staticmethod
    def cache_path(path: str) -> str:
        """The correlating cache file's name for an original file."""
        return f"{path}.s4dcache"

    def _resolve_handles(self, d_file: str):
        d_handle = self.direct.pfs.open(d_file)
        c_handle = self.cpfs.open(self.cache_path(d_file))
        return d_handle, c_handle

    def cpfs_client_for(self, rank: int) -> PFSClient:
        return self._cpfs_clients[rank % self.direct.num_nodes]

    @property
    def cpfs_clients(self) -> list[PFSClient]:
        """All cache-side PFS clients (telemetry attachment point)."""
        return self._cpfs_clients

    def _lock_key(self, path: str, offset: int) -> str:
        if self.metadata_shards == 1:
            return path
        shard = (offset // self.shard_span) % self.metadata_shards
        return f"{path}#shard{shard}"

    # -- IOLayer: open ------------------------------------------------------
    def open(self, rank: int, path: str, size_hint: int):
        """§IV.B MPI_File_open: open original + correlating cache file."""
        handle = yield from self.direct.open(rank, path, size_hint)
        c_path = self.cache_path(path)
        if not self.cpfs.exists(c_path):
            # The cache file's address space spans the whole cache
            # capacity (the space manager enforces the global budget).
            hint = max(self.space.capacity, 1)
            self.cpfs.create(c_path, hint)
            self.space.register_cache_file(c_path)
        handle.private.setdefault("s4d_cache_path", c_path)
        self._open_files += 1
        # §IV.C: the helper thread is created when the process opens
        # the first file.
        self.rebuilder.start()
        return handle

    # -- IOLayer: read/write --------------------------------------------------
    def io(self, rank: int, handle: FileHandle, op: str, offset: int, size: int,
           priority: int = PRIORITY_NORMAL, ctx=None):
        """§IV.B MPI_File_read / MPI_File_write."""
        if ctx is None:
            ctx = NULL_CONTEXT
        traced = ctx is not NULL_CONTEXT
        sim = self.sim
        start = sim.now
        # Identifier + Redirector bookkeeping costs (measured by Fig. 11).
        if traced:
            id_span = ctx.begin("benefit_eval", cat="middleware",
                                component="app", op=op)
        if not sim.advance(self.lookup_overhead):
            yield sim.timeout(self.lookup_overhead)
        benefit, cdt_entry = self.identifier.observe(
            rank, handle.path, op, offset, size
        )
        if traced:
            ctx.end(id_span, benefit=benefit, critical=cdt_entry is not None)
            # Metadata decisions are serialised per file (§III.D's DMT
            # lock) — or per (file, offset-shard) when distributed
            # metadata is enabled.
            wait_span = ctx.begin("metadata_wait", cat="middleware",
                                  component="app")
        owner = self._owner_names.get(rank)
        if owner is None:
            owner = self._owner_names[rank] = f"rank{rank}"
        # The request, then the token it carries: one name, so that the
        # finally below releases what was acquired (SIM001).
        token = self.locks.acquire(
            self._lock_key(handle.path, offset), owner=owner
        )
        if sim.take(token):
            token = token.token
        else:
            token = yield token
        if traced:
            ctx.end(wait_span)
        try:
            plan = self.redirector.route(
                op,
                handle.path,
                handle.private["s4d_cache_path"],
                offset,
                size,
                cdt_entry,
                ctx=ctx,
            )
            if plan.metadata_mutations:
                # Synchronous DMT persistence (§III.D).
                if traced:
                    sync_span = ctx.begin("metadata_sync", cat="middleware",
                                          component="app",
                                          mutations=plan.metadata_mutations)
                sync = plan.metadata_mutations * self.metadata_sync_cost
                if not sim.advance(sync):
                    yield sim.timeout(sync)
                if traced:
                    ctx.end(sync_span)
        finally:
            self.locks.release(token)

        try:
            result = yield from self._execute(rank, handle, plan, offset,
                                              size, priority, start, ctx)
        finally:
            plan.release()
        if self.stream is not None:
            self.stream.observe(self.sim.now - start)
        return result

    def _execute(self, rank, handle, plan, offset, size, priority, start,
                 ctx=NULL_CONTEXT):
        """Issue the planned segments in parallel and merge results."""
        op = plan.op
        d_handle = self.direct.pfs.open(handle.path)
        c_handle = self.cpfs.open(handle.private["s4d_cache_path"])
        stamp = next_stamp() if op == OP_WRITE else None

        exec_span = None
        if ctx is not NULL_CONTEXT:
            exec_span = ctx.begin("execute", cat="middleware",
                                  component="app", steps=len(plan.steps))
        exec_ctx = ctx.under(exec_span)
        try:
            step_results = yield from self.sim.gather(
                [self._step_flow(rank, d_handle, c_handle, op, step,
                                 stamp, priority, exec_ctx)
                 for step in plan.steps],
                name="s4d:" + op,
            )
        finally:
            if exec_span is not None:
                ctx.end(exec_span)

        servers_touched = 0
        for r in step_results:
            if r.servers_touched > servers_touched:
                servers_touched = r.servers_touched
        if op == OP_WRITE:
            d_handle.size = max(d_handle.size, offset + size)
            segments = []
        else:
            segments = self._merge_read_segments(plan.steps, step_results)
        return IOResult(op, handle.path, offset, size, start, self.sim.now,
                        servers_touched, segments, stamp, plan.cserver_bytes)

    def _step_flow(self, rank, d_handle, c_handle, op, step: RouteStep,
                   stamp, priority, ctx=NULL_CONTEXT):
        """One segment's I/O on its target file system."""
        span = None
        if ctx is not NULL_CONTEXT:
            span = ctx.begin(f"segment:{step.target}", cat="middleware",
                             component="app", size=step.size)
            ctx = ctx.under(span)
        try:
            if step.target == TO_CSERVERS:
                client = self.cpfs_client_for(rank)
                if op == OP_WRITE:
                    result = yield from client.write(
                        c_handle, step.c_offset, step.size, priority,
                        stamp=stamp, ctx=ctx
                    )
                else:
                    result = yield from client.read(
                        c_handle, step.c_offset, step.size, priority, ctx=ctx
                    )
            else:
                client = self.direct.client_for(rank)
                if op == OP_WRITE:
                    result = yield from client.write(
                        d_handle, step.d_offset, step.size, priority,
                        stamp=stamp, ctx=ctx
                    )
                else:
                    result = yield from client.read(
                        d_handle, step.d_offset, step.size, priority, ctx=ctx
                    )
        finally:
            if span is not None:
                ctx.end(span)
        return result

    @staticmethod
    def _merge_read_segments(steps, step_results):
        """Translate per-step read segments into original-file coords."""
        merged = []
        for step, res in zip(steps, step_results):
            if step.target == TO_CSERVERS:
                shift = step.d_offset - step.c_offset
                merged += [(s + shift, e + shift, v) for s, e, v in res.segments]
            else:
                merged += res.segments
        return merge_stamp_segments(merged)

    # -- IOLayer: close / finalize ----------------------------------------------
    def close(self, rank: int, handle: FileHandle):
        """§IV.B MPI_File_close: close original and cache file."""
        yield from self.direct.close(rank, handle)
        self._open_files -= 1
        if self._open_files == 0:
            # "destroyed after the last file is closed" (§IV.C).
            self.rebuilder.stop()

    def finalize(self):
        """Job teardown: stop the helper even if files leaked open."""
        self.rebuilder.stop()
        return
        yield  # pragma: no cover

    # -- crash recovery -----------------------------------------------------
    def recover(self) -> None:
        """Simulate a middleware restart after a power failure (§III.D).

        The DMT's synchronous persistence is the durability story; all
        volatile state — in-flight Rebuilder work, space free lists,
        LRU recency — dies with the process and is rebuilt from the
        recovered mapping table, exactly as a restarted deployment
        would do.
        """
        was_running = self.rebuilder.running
        self.rebuilder.stop()
        self.dmt.recover()
        self.space.rebuild_from(self.dmt)
        if was_running:
            self.rebuilder.start()

    # -- diagnostics ------------------------------------------------------------
    def metadata_bytes(self, entry_bytes: int = 24) -> int:
        """§V.E.1 estimate: DMT records times the 6*4B record size."""
        return len(self.dmt) * entry_bytes
