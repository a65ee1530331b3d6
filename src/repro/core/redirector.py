"""The Redirector (§III.E, Algorithm 1).

For each I/O request the Redirector consults the four factors the
paper lists — DMT mapping, CDT membership, request type, and available
CServer space — and decides where each byte is served:

- DMT hit  -> serve from CServers at the mapped location (line 22);
  a write re-dirties the mapping (line 11's dirty marking).
- Write miss, in CDT -> allocate free space (lines 4-7), else clean
  LRU space (lines 9-12); if neither exists the write goes to
  DServers.
- Read miss, in CDT -> serve from DServers now, set the C_flag so the
  Rebuilder fetches it lazily (lines 17-19).

Generalisation documented in DESIGN.md: a request may *partially*
overlap cached data, so the decision is made per hit/miss segment;
Algorithm 1 verbatim is the special case of a fully-hit or fully-miss
request.

All metadata mutations happen synchronously at decision time (before
the request is sent, matching the paper's MPI_File_read/write flow);
the middleware charges the metadata-sync latency.
"""

from __future__ import annotations

import dataclasses
import operator

from ..devices.base import OP_READ, OP_WRITE
from ..errors import CacheError
from .metrics import CacheMetrics
from .space import CacheSpace
from .tables import CDT, CDTEntry, DMT, DMTExtent

#: Routing targets.
TO_DSERVERS = "dservers"
TO_CSERVERS = "cservers"


@dataclasses.dataclass(slots=True)
class RouteStep:
    """One contiguous segment of a request, routed to one target.

    Built once by :meth:`Redirector.route` and never mutated.
    """

    target: str
    #: Offset/size in the *original* file's coordinates.
    d_offset: int
    size: int
    #: Offset in the cache file (only when target is CServers).
    c_offset: int | None = None
    #: The DMT extent backing a CServer step.
    extent: DMTExtent | None = None


#: Sort key restoring request order in a multi-step plan.
_BY_D_OFFSET = operator.attrgetter("d_offset")


@dataclasses.dataclass(slots=True)
class RoutePlan:
    """The Redirector's decision for one request.

    CServer steps hold a pin on their backing extent from decision
    time until :meth:`release` — without it a concurrent request's
    clean-LRU eviction could reallocate the cache range this plan is
    about to access.
    """

    op: str
    d_file: str
    steps: list[RouteStep]
    #: Number of DMT/CDT mutations performed (for metadata-cost charging).
    metadata_mutations: int = 0
    #: Bytes the CServer steps move (set by route()).
    cserver_bytes: int = 0
    #: The space manager whose victim-scan cache must learn when a
    #: pin drop makes an extent evictable again (set by route()).
    space: CacheSpace | None = None
    _released: bool = False

    def release(self) -> None:
        """Drop the pins taken at decision time (idempotent)."""
        if self._released:
            return
        self._released = True
        unpinned = False
        for step in self.steps:
            extent = step.extent
            if extent is not None:
                extent.pins -= 1
                if extent.pins == 0:
                    unpinned = True
        if unpinned and self.space is not None:
            self.space.invalidate_evictable()


class Redirector:
    """Implements Algorithm 1 over the CDT, DMT and space manager."""

    def __init__(
        self,
        dmt: DMT,
        cdt: CDT,
        space: CacheSpace,
        metrics: CacheMetrics | None = None,
    ):
        self.dmt = dmt
        self.cdt = cdt
        self.space = space
        self.metrics = metrics if metrics is not None else CacheMetrics()
        #: Optional streaming hooks (a CacheStream); None costs nothing.
        self.stream = None

    def route(
        self,
        op: str,
        d_file: str,
        c_file: str,
        offset: int,
        size: int,
        cdt_entry: CDTEntry | None,
        ctx=None,
    ) -> RoutePlan:
        """Decide routing for one request; mutates DMT/CDT/space."""
        if op not in (OP_READ, OP_WRITE):
            raise CacheError(f"unknown op {op!r}")
        span = None
        if ctx is not None:
            span = ctx.begin("route", cat="middleware", component="app",
                             op=op)
        steps: list[RouteStep] = []
        plan = RoutePlan(op, d_file, steps, 0, 0, self.space)
        # Snapshot the hit segments once (a bisect plus a short walk —
        # no gap tuples, no full-range tiling); the gaps between them
        # are derived below.  The snapshot matters: hit handling and
        # write-miss admission mutate the DMT mid-plan.
        hits = self.dmt.extents_overlapping(d_file, offset, size)
        # Hit segments are resolved BEFORE miss segments: a write
        # miss's clean-LRU eviction may otherwise evict the very
        # extent a later hit segment of the same request references
        # (stale c_offset, resurrected metadata — a real bug found by
        # the consistency property tests).  Hits on a write mark the
        # extent dirty, which makes it unevictable for the misses.
        for seg_start, seg_end, extent in hits:
            if cdt_entry is not None:
                # Keep the resident's value current (mirrors the CDT's
                # smoothed benefit) so the fetch churn guard compares
                # like with like.  A devalued resident may newly fall
                # below a fetch threshold, so the victim-scan cache
                # must forget its "no victim" answer.
                benefit = cdt_entry.benefit
                if benefit < extent.benefit:
                    self.space.invalidate_evictable()
                extent.benefit = benefit
            self._route_hit(plan, op, seg_start, seg_end - seg_start, extent)
        pos = offset
        end = offset + size
        for seg_start, seg_end, _extent in hits:
            if seg_start > pos:
                self._route_miss(plan, op, d_file, c_file, pos,
                                 seg_start - pos, cdt_entry)
            pos = seg_end
        if pos < end:
            self._route_miss(plan, op, d_file, c_file, pos, end - pos,
                             cdt_entry)
        # Pin every referenced extent until the caller releases the
        # plan (after the data movement completes).
        for step in steps:
            if step.extent is not None:
                step.extent.pins += 1
        # Restore request order for readability of plans/results (hits
        # were planned before misses).
        if len(steps) > 1:
            steps.sort(key=_BY_D_OFFSET)
        self._account(plan, size)
        if span is not None:
            ctx.end(
                span,
                steps=len(plan.steps),
                cserver_bytes=plan.cserver_bytes,
                metadata_mutations=plan.metadata_mutations,
            )
        return plan

    # -- the three outcomes ------------------------------------------------
    def _route_miss(
        self,
        plan: RoutePlan,
        op: str,
        d_file: str,
        c_file: str,
        seg_start: int,
        seg_size: int,
        cdt_entry: CDTEntry | None,
    ) -> None:
        if op == OP_WRITE:
            self._route_write_miss(
                plan, d_file, c_file, seg_start, seg_size, cdt_entry
            )
        else:
            self._route_read_miss(plan, seg_start, seg_size, cdt_entry)

    def _route_hit(
        self,
        plan: RoutePlan,
        op: str,
        seg_start: int,
        seg_size: int,
        extent: DMTExtent,
    ) -> None:
        """Line 22: 'change the req location as the DMT entry'."""
        c_offset = extent.c_offset + (seg_start - extent.d_offset)
        if op == OP_WRITE:
            if not extent.dirty:
                self.dmt.set_dirty(extent, True)
                plan.metadata_mutations += 1
            extent.dirty_epoch += 1
            self.metrics.write_hits += 1
        else:
            self.metrics.read_hits += 1
        if self.stream is not None:
            self.stream.hit(op, seg_size)
        self.space.touch(extent)
        plan.steps.append(
            RouteStep(TO_CSERVERS, seg_start, seg_size, c_offset, extent)
        )

    def _route_write_miss(
        self,
        plan: RoutePlan,
        d_file: str,
        c_file: str,
        seg_start: int,
        seg_size: int,
        cdt_entry: CDTEntry | None,
    ) -> None:
        """Lines 2-15: admit a critical write if space can be found."""
        if cdt_entry is None:
            plan.steps.append(RouteStep(TO_DSERVERS, seg_start, seg_size))
            return
        allocation = self.space.find_free_space(c_file, seg_size)
        if allocation is None:
            allocation = self.space.find_clean_space(c_file, seg_size, self.dmt)
        if allocation is None:
            self.metrics.write_bounced += 1
            if self.stream is not None:
                self.stream.bounced(seg_size)
            plan.steps.append(RouteStep(TO_DSERVERS, seg_start, seg_size))
            return
        extent = self.dmt.add(
            d_file=d_file,
            d_offset=seg_start,
            c_file=allocation.c_file,
            c_offset=allocation.c_offset,
            length=seg_size,
            dirty=True,
            benefit=cdt_entry.benefit,
        )
        extent.dirty_epoch += 1
        self.space.touch(extent)
        plan.metadata_mutations += 1
        self.metrics.write_admitted += 1
        if self.stream is not None:
            self.stream.admitted(seg_size)
        plan.steps.append(
            RouteStep(TO_CSERVERS, seg_start, seg_size, allocation.c_offset, extent)
        )

    def _route_read_miss(
        self,
        plan: RoutePlan,
        seg_start: int,
        seg_size: int,
        cdt_entry: CDTEntry | None,
    ) -> None:
        """Lines 16-20: serve from DServers, mark for lazy caching."""
        self.metrics.read_misses += 1
        marked = cdt_entry is not None and not cdt_entry.c_flag
        if marked:
            cdt_entry.c_flag = True
            plan.metadata_mutations += 1
            self.metrics.lazy_fetch_marks += 1
        if self.stream is not None:
            self.stream.read_miss(seg_size, marked)
        plan.steps.append(RouteStep(TO_DSERVERS, seg_start, seg_size))

    # -- accounting ----------------------------------------------------------
    def _account(self, plan: RoutePlan, size: int) -> None:
        d_bytes = 0
        for step in plan.steps:
            if step.target == TO_DSERVERS:
                d_bytes += step.size
        c_bytes = plan.cserver_bytes = size - d_bytes
        self.metrics.bytes_to_dservers += d_bytes
        self.metrics.bytes_to_cservers += c_bytes
        if 0 < c_bytes < size:
            self.metrics.requests_split += 1
        # Whole-request attribution (Table III counts requests): a
        # request counts where the majority of its bytes went.
        if c_bytes > d_bytes:
            self.metrics.requests_to_cservers += 1
        else:
            self.metrics.requests_to_dservers += 1
