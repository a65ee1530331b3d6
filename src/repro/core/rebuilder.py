"""The Rebuilder (§III.F, §IV.C).

Background data reorganisation, "triggered periodically":

1. write dirty data back to DServers, then clear the D_flag (the
   space becomes clean and therefore evictable);
2. read CDT entries whose C_flag is set from DServers into CServers
   (the lazy caching of read misses), then clear the C_flag.

All reorganisation I/O runs at ``Rebuilder.priority``, *low* by
default, so it yields to application requests (§III.F: "Rebuilder
issues low-priority I/O requests for the reorganization to reduce the
interference").

Resource discipline (simlint SIM001 audit): the Rebuilder holds no
device grants itself — the PFS clients acquire and finally-release
queue slots on its behalf — but cache-space reservations follow the
same rule: every ``space.find_*`` allocation is released on the
kill/stale paths before the extent is published to the DMT.

§IV.C implements this as one helper thread per MPI process; here a
single simulated process per middleware instance does the same work —
the serialisation difference only matters for reorganisation
throughput, which the budget parameter controls explicitly.
"""

from __future__ import annotations

import operator
import typing

from ..errors import ProcessKilled
from ..obs import NULL_TRACER
from ..pfs import PFSClient, PFSFile
from ..sim.resources import PRIORITY_LOW
from .metrics import CacheMetrics
from .space import CacheSpace
from .tables import CDT, CDTEntry, DMT, DMTExtent

if typing.TYPE_CHECKING:  # pragma: no cover
    from ..sim import Simulator


#: Flush order: DServer-offset order within each file.  DMT extents of
#: one file never overlap, so the key is unique and the order total.
_BY_FILE_OFFSET = operator.attrgetter("d_file", "d_offset")

#: Resolves an original-file name to its (original, cache) PFS handles.
HandleResolver = typing.Callable[[str], tuple[PFSFile, PFSFile]]


class Rebuilder:
    """Periodic flush/fetch engine over the cache tables."""

    #: Concurrent data movements per batch: a serial mover would keep
    #: only one file server busy at a time and the write-back of sparse
    #: random extents would crawl at single-device random-IOPS speed.
    PARALLELISM = 16

    def __init__(
        self,
        sim: "Simulator",
        dmt: DMT,
        cdt: CDT,
        space: CacheSpace,
        opfs_client: PFSClient,
        cpfs_client: PFSClient,
        resolve: HandleResolver,
        metrics: CacheMetrics | None = None,
        interval: float = 0.25,
        budget: int = 32 * 1024 * 1024,
        priority: int = PRIORITY_LOW,
    ):
        self.sim = sim
        self.dmt = dmt
        self.cdt = cdt
        self.space = space
        self.opfs_client = opfs_client
        self.cpfs_client = cpfs_client
        self.resolve = resolve
        self.metrics = metrics if metrics is not None else CacheMetrics()
        self.interval = interval
        #: Bytes each pass (flush, then fetch) may move per cycle.
        self.budget = budget
        #: I/O priority of reorganisation traffic.  §III.F prescribes
        #: low priority; the ablation benchmark flips this to measure
        #: the interference that decision avoids.
        self.priority = priority
        self.cycles = 0
        self._proc = None
        self._active_batch: list = []
        #: Observability tracer (replaced by Tracer.bind).
        self.obs = NULL_TRACER

    # -- lifecycle --------------------------------------------------------
    def start(self) -> None:
        """Spawn the periodic background process (idempotent)."""
        if self._proc is None or not self._proc.is_alive:
            self._proc = self.sim.spawn(self._run(), name="rebuilder")

    def stop(self) -> None:
        """Kill the background process (§IV.C: destroyed after the last
        file is closed), including any in-flight data movements.

        Batch movements are killed *before* the main loop: killing the
        loop first would unwind ``_run_batch``'s finally-clause and
        deregister the movements while still alive, leaving them as
        zombies that later mutate post-recovery state (a bug the
        consistency property suite caught).  ``_active_batch`` is
        additive for the same reason: the periodic process and a
        foreground ``drain()`` can each have a batch in flight at once,
        and a single overwritten field would hide one runner's
        movements from this kill sweep (also caught by the property
        suite — a surviving movement released its cache reservation
        into the *rebuilt* space state, corrupting accounting).
        """
        batch, self._active_batch = self._active_batch, []
        for proc in batch:
            if proc.is_alive:
                proc.kill("middleware finalize")
        if self._proc is not None and self._proc.is_alive:
            self._proc.kill("middleware finalize")
        self._proc = None

    @property
    def running(self) -> bool:
        return self._proc is not None and self._proc.is_alive

    def _run(self):
        try:
            while True:
                yield self.sim.timeout(self.interval)
                yield from self.cycle()
        except ProcessKilled:
            return

    # -- one reorganisation cycle ------------------------------------------
    def cycle(self):
        """Process generator: one flush pass then one fetch pass."""
        yield from self.flush_pass(self.budget)
        yield from self.fetch_pass(self.budget)
        self.cycles += 1

    def drain(self, max_cycles: int = 1000):
        """Run cycles until quiescent.

        Quiescent means: no dirty extents remain, and a full cycle made
        no progress on pending fetches (entries that cannot be placed —
        cache full of equal-or-higher-benefit data — stay pending
        forever by design, so "pending empty" alone would never
        converge).  Used by experiment harnesses between runs.
        """
        for _ in range(max_cycles):
            dirty = bool(self.dmt.dirty_extents(limit=1))
            pending = bool(self.cdt.pending_fetches(limit=1))
            if not dirty and not pending:
                return
            before = (self.metrics.fetched_bytes, self.metrics.flushed_bytes)
            yield from self.cycle()
            after = (self.metrics.fetched_bytes, self.metrics.flushed_bytes)
            if after == before and not self.dmt.dirty_extents(limit=1):
                return
        raise RuntimeError("rebuilder drain did not converge")

    # -- flushing dirty data ------------------------------------------------
    def flush_pass(self, budget: int):
        """Write dirty extents back to DServers in file-offset order.

        Sorting the write-back stream by (file, offset) is what turns
        the SSD stage into a request *reorganiser*: the random writes
        the cache absorbed go back to the HDDs as ascending, mostly
        adjacent runs that the servers' write-behind coalesces — the
        same effect the paper's ref [13] (iTransformer) builds on.
        Unsorted write-back would make the HDDs pay the very random-
        access penalty the cache existed to avoid.
        """
        spent = 0
        dirty = sorted(self.dmt.dirty_extents(), key=_BY_FILE_OFFSET)
        batch: list = []
        for extent in dirty:
            if spent >= budget:
                break
            batch.append(extent)
            spent += extent.length
            if len(batch) >= self.PARALLELISM:
                yield from self._run_batch(self._flush_extent, batch)
                batch = []
        if batch:
            yield from self._run_batch(self._flush_extent, batch)

    def _run_batch(self, action, items):
        procs = [
            self.sim.spawn(action(item), name="rebuilder-mv")
            for item in items
        ]
        self._active_batch.extend(procs)
        try:
            yield self.sim.all_of(procs)
        finally:
            # Deregister only *this* batch: a concurrent runner (the
            # periodic process vs a foreground drain) may have its own
            # movements registered, and stop() must see those.
            active = self._active_batch
            for proc in procs:
                try:
                    active.remove(proc)
                except ValueError:
                    pass  # already swept by stop()

    def _flush_extent(self, extent: DMTExtent):
        d_handle, c_handle = self.resolve(extent.d_file)
        epoch = extent.dirty_epoch
        ctx = self.obs.request(
            -1, "flush", extent.d_file, extent.d_offset, extent.length,
            name="rebuild_flush", component="rebuilder", cat="rebuilder",
        )
        # Pinned while its bytes are in flight.  The periodic process
        # and a foreground drain() can flush the same dirty extent at
        # once; when the other flush lands first the extent turns
        # clean, and without the pin an eviction could hand its cache
        # range to other data before the copy below reads it, writing
        # that data over the flushed range (caught by the consistency
        # property suite).
        extent.pins += 1
        try:
            yield from self.cpfs_client.read(
                c_handle, extent.c_offset, extent.length,
                priority=self.priority, ctx=ctx,
            )
            yield from self.opfs_client.write(
                d_handle, extent.d_offset, extent.length,
                priority=self.priority, ctx=ctx,
            )
        finally:
            ctx.finish()
            extent.pins -= 1
        # The timed write minted a placeholder stamp; the authoritative
        # bytes are the cache extent's, captured *after* the I/O so a
        # foreground write racing the flush is not lost.
        d_handle.content.copy_range_from(
            c_handle.content, extent.c_offset, extent.d_offset, extent.length
        )
        if extent.dirty_epoch == epoch:
            self.dmt.set_dirty(extent, False)
        if not extent.dirty:
            # Clean, and this flush's pin is gone: a fresh eviction
            # candidate.
            self.space.invalidate_evictable()
        self.metrics.flushes += 1
        self.metrics.flushed_bytes += extent.length

    # -- fetching lazily-cached reads ----------------------------------------
    def fetch_pass(self, budget: int):
        """Cache CDT entries whose C_flag is set.

        Highest benefit first (the cache should end up holding the
        most valuable data), offset-sorted within a benefit class so
        the DServer reads stream instead of seeking.
        """
        # A snapshot: fetches clear C_flags (and foreground admissions
        # move benefits) while the batches below run.
        pending = self.cdt.pending_fetches(budget=budget)

        def fetch_and_clear(entry):
            done = yield from self._fetch_entry(entry)
            if done:
                entry.c_flag = False

        step = self.PARALLELISM
        for i in range(0, len(pending), step):
            yield from self._run_batch(fetch_and_clear, pending[i:i + step])

    def _fetch_entry(self, entry: CDTEntry):
        """Fetch the entry's unmapped segments; True if fully mapped."""
        d_handle, c_handle = self.resolve(entry.d_file)
        complete = True
        segments = self.dmt.lookup(entry.d_file, entry.d_offset, entry.length)
        for seg_start, seg_end, extent in segments:
            if extent is not None:
                continue  # already cached by a foreground write
            seg_size = seg_end - seg_start
            allocation = self.space.find_free_space(c_handle.name, seg_size)
            if allocation is None:
                # Benefit-guarded eviction: a background fetch may only
                # displace strictly less valuable clean data (churn
                # guard, see space.find_clean_space).
                allocation = self.space.find_clean_space(
                    c_handle.name, seg_size, self.dmt,
                    min_benefit=entry.benefit,
                )
            if allocation is None:
                complete = False  # nothing cheap enough to displace
                continue
            ctx = self.obs.request(
                -1, "fetch", entry.d_file, seg_start, seg_size,
                name="lazy_fetch", component="rebuilder", cat="rebuilder",
            )
            try:
                yield from self.opfs_client.read(
                    d_handle, seg_start, seg_size, priority=self.priority,
                    ctx=ctx,
                )
                yield from self.cpfs_client.write(
                    c_handle, allocation.c_offset, seg_size,
                    priority=self.priority, ctx=ctx,
                )
            except BaseException:
                # Any unwind mid-movement — a kill at the yield point
                # (finalize/recovery) or an unexpected error — must
                # hand the reserved space back so accounting stays
                # exact.  Catching only ProcessKilled here once left a
                # leak window for other exceptions (found by SIM004).
                self.space.release(
                    allocation.c_file, allocation.c_offset, allocation.length
                )
                raise
            finally:
                # Without this, every lazy fetch left its root span
                # open (simlint OBS001): the trace reported rebuilder
                # I/O as eternally in-flight and the open_spans
                # counter grew with every cycle.
                ctx.finish()
            # Re-check after the timed I/O: a foreground write may have
            # mapped (part of) this range meanwhile — its data is newer,
            # keep it and discard the fetched copy.
            if self.dmt.overlaps(entry.d_file, seg_start, seg_size):
                self.space.release(
                    allocation.c_file, allocation.c_offset, allocation.length
                )
                continue
            new_extent = self.dmt.add(
                d_file=entry.d_file,
                d_offset=seg_start,
                c_file=allocation.c_file,
                c_offset=allocation.c_offset,
                length=seg_size,
                dirty=False,
                benefit=entry.benefit,
            )
            self.space.touch(new_extent)
            c_handle.content.copy_range_from(
                d_handle.content, seg_start, allocation.c_offset, seg_size
            )
            self.metrics.fetches += 1
            self.metrics.fetched_bytes += seg_size
        return complete
