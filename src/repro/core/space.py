"""CServer cache space management (§III.E's allocation rules).

Algorithm 1 "first looks for free space in CServers when allocating an
available space for a write request.  If free space cannot be found, a
clean space will be the candidate based on a LRU policy."

The cache presents one logical byte space per cache file; this manager
enforces the *global* capacity ("the cache capacity is set to 20% of
the application's data size"), hands out contiguous ranges first-fit
from per-file free lists, and evicts least-recently-used *clean*
extents when free space runs out.  Dirty extents are never evicted —
the Rebuilder must flush them first.
"""

from __future__ import annotations

import bisect
import dataclasses

from ..errors import CacheError
from .tables import DMT, DMTExtent


@dataclasses.dataclass
class Allocation:
    """A granted contiguous cache range."""

    c_file: str
    c_offset: int
    length: int
    #: Extents evicted to make room (the caller unmapped them already).
    evicted: list[DMTExtent] = dataclasses.field(default_factory=list)


class _FileSpace:
    """First-fit allocator over one cache file's address space.

    Keeps a sorted list of free holes; frees coalesce with neighbours.
    """

    def __init__(self, limit: int):
        self.limit = limit
        self._holes: list[tuple[int, int]] = [(0, limit)]  # (start, end)

    def allocate(self, size: int) -> int | None:
        for i, (start, end) in enumerate(self._holes):
            if end - start >= size:
                if end - start == size:
                    del self._holes[i]
                else:
                    self._holes[i] = (start + size, end)
                return start
        return None

    def reserve(self, offset: int, size: int) -> None:
        """Claim a specific range (recovery: re-adopt persisted extents)."""
        start, end = offset, offset + size
        for i, (hole_start, hole_end) in enumerate(self._holes):
            if hole_start <= start and end <= hole_end:
                pieces = []
                if hole_start < start:
                    pieces.append((hole_start, start))
                if end < hole_end:
                    pieces.append((end, hole_end))
                self._holes[i:i + 1] = pieces
                return
        raise CacheError(
            f"reserve of non-free cache range [{start}, {end})"
        )

    def free(self, offset: int, size: int) -> None:
        start, end = offset, offset + size
        if start < 0 or end > self.limit:
            raise CacheError(f"free outside address space: [{start}, {end})")
        idx = bisect.bisect_left(self._holes, (start, end))
        # Overlap checks against both neighbours.
        if idx > 0 and self._holes[idx - 1][1] > start:
            raise CacheError(f"double free of cache range [{start}, {end})")
        if idx < len(self._holes) and self._holes[idx][0] < end:
            raise CacheError(f"double free of cache range [{start}, {end})")
        # Coalesce with the left and/or right neighbour.
        if idx > 0 and self._holes[idx - 1][1] == start:
            start = self._holes[idx - 1][0]
            del self._holes[idx - 1]
            idx -= 1
        if idx < len(self._holes) and self._holes[idx][0] == end:
            end = self._holes[idx][1]
            del self._holes[idx]
        self._holes.insert(idx, (start, end))

    @property
    def free_bytes(self) -> int:
        return sum(end - start for start, end in self._holes)

    def largest_hole(self) -> int:
        return max((end - start for start, end in self._holes), default=0)


class CacheSpace:
    """Global cache capacity + per-cache-file allocators + clean LRU."""

    #: A background fetch must value its data at least this factor
    #: above a victim's to displace it (anti-thrash hysteresis).  Set
    #: between the benefit noise within one traffic class (~1.05 after
    #: the CDT's EMA smoothing) and the seq-vs-random benefit gap the
    #: cost model produces for small requests (~1.3).
    fetch_hysteresis: float = 1.15

    def __init__(self, capacity: int):
        if capacity < 0:
            raise CacheError(f"cache capacity must be >= 0: {capacity}")
        self.capacity = capacity
        self.used = 0
        self._files: dict[str, _FileSpace] = {}
        #: LRU recency: oldest first.  Maps extent id -> extent.
        self._recency: dict[int, DMTExtent] = {}
        self.evictions = 0
        #: Optional streaming hooks (a CacheStream); None costs nothing.
        self.stream = None
        # Negative-result cache for the victim scan.  In steady state
        # most :meth:`_oldest_clean` calls walk the whole recency dict
        # and find nothing (everything dirty/pinned, or nothing below
        # the fetch threshold); those outcomes stay valid until some
        # extent *becomes* evictable.  ``invalidate_evictable`` must be
        # called on every such transition — extent insertion (handled
        # in :meth:`touch`), dirty->clean, pins->0, benefit decrease —
        # or the cache would return stale Nones and change behaviour.
        self._evict_epoch = 0
        self._none_epoch = -1  # plain scan found nothing at this epoch
        self._none_threshold_epoch = -1  # ditto for thresholded scans...
        self._none_threshold = 0.0  # ...with thresholds <= this value

    def register_cache_file(self, c_file: str) -> None:
        """Declare a cache file; its address space spans the capacity."""
        if c_file not in self._files:
            self._files[c_file] = _FileSpace(self.capacity)

    # -- allocation per Algorithm 1 ---------------------------------------
    def find_free_space(self, c_file: str, size: int) -> Allocation | None:
        """Algorithm 1 lines 4-5: allocate from free space only."""
        # _check_file inlined: this runs for every allocation.
        file_space = self._files.get(c_file)
        if file_space is None:
            raise CacheError(f"unregistered cache file {c_file!r}")
        if size <= 0:
            raise CacheError(f"allocation size must be positive: {size}")
        if self.used + size > self.capacity:
            return None
        offset = file_space.allocate(size)
        if offset is None:
            return None
        self.used += size
        return Allocation(c_file, offset, size)

    def find_clean_space(
        self, c_file: str, size: int, dmt: DMT,
        min_benefit: float | None = None,
    ) -> Allocation | None:
        """Algorithm 1 lines 9-10: evict clean LRU extents to make room.

        Evicts least-recently-used clean extents (unmapping them from
        the DMT) until a contiguous hole of ``size`` exists in
        ``c_file`` within the global budget, or no clean extent
        remains — then returns None.

        ``min_benefit`` is the Rebuilder's churn guard (DESIGN.md):
        when given, only extents whose benefit is smaller by at least
        the hysteresis factor may be evicted — a background fetch must
        not displace data the model values comparably, or benefit
        noise (the distance term varies per evaluation) would let each
        read run roll the previous working set out of the cache.  The
        foreground write path (Algorithm 1 verbatim) passes None:
        plain clean-LRU.

        An unregistered ``c_file`` raises from the first
        :meth:`find_free_space` call.
        """
        threshold = None
        if min_benefit is not None:
            threshold = min_benefit / self.fetch_hysteresis
        while True:
            allocation = self.find_free_space(c_file, size)
            if allocation is not None:
                return allocation
            victim = self._oldest_clean(max_benefit=threshold)
            if victim is None:
                return None
            self.evict(victim, dmt)

    def evict(self, extent: DMTExtent, dmt: DMT) -> None:
        """Unmap a clean extent and reclaim its cache range."""
        if extent.dirty:
            raise CacheError(f"cannot evict dirty extent {extent}")
        dmt.remove(extent)
        self._recency.pop(extent.record_id, None)
        self.release(extent.c_file, extent.c_offset, extent.length)
        self.evictions += 1
        if self.stream is not None:
            self.stream.evicted(extent.length)

    def release(self, c_file: str, c_offset: int, length: int) -> None:
        """Return a range to the free list (no DMT involvement)."""
        self._check_file(c_file)
        self._files[c_file].free(c_offset, length)
        self.used -= length
        if self.used < 0:
            raise CacheError("cache space accounting went negative")

    # -- recency ------------------------------------------------------------
    def invalidate_evictable(self) -> None:
        """Note that an extent may have become evictable.

        Callers owning extent state transitions (dirty->clean, last
        pin dropped, benefit lowered) must invoke this so the victim
        scan's negative-result cache is discarded; see ``__init__``.
        """
        self._evict_epoch += 1

    def touch(self, extent: DMTExtent) -> None:
        """Mark an extent most-recently-used."""
        recency = self._recency
        record_id = extent.record_id
        if recency.pop(record_id, None) is None:
            # First sighting: a new extent may be evictable right away.
            self._evict_epoch += 1
        recency[record_id] = extent

    def forget(self, extent: DMTExtent) -> None:
        self._recency.pop(extent.record_id, None)

    def _oldest_clean(
        self, max_benefit: float | None = None
    ) -> DMTExtent | None:
        # Split loops so the common no-threshold scan (the foreground
        # write path, called once per eviction) does one check per
        # extent instead of two.  Fruitless scans are cached by epoch:
        # "nothing evictable" stays true until invalidate_evictable()
        # (miss segments of one request and the rebuilder's fetch
        # passes otherwise rescan the full dict back-to-back).
        epoch = self._evict_epoch
        if max_benefit is None:
            if self._none_epoch == epoch:
                return None
            for extent in self._recency.values():
                if extent.dirty or extent.pins > 0:
                    continue
                return extent
            self._none_epoch = epoch
            return None
        if self._none_epoch == epoch or (
            self._none_threshold_epoch == epoch
            and max_benefit <= self._none_threshold
        ):
            # No victim at all, or none below an even higher threshold.
            return None
        for extent in self._recency.values():
            if extent.dirty or extent.pins > 0:
                continue
            if extent.benefit >= max_benefit:
                continue
            return extent
        if (self._none_threshold_epoch != epoch
                or max_benefit > self._none_threshold):
            self._none_threshold_epoch = epoch
            self._none_threshold = max_benefit
        return None

    # -- recovery ----------------------------------------------------------
    def rebuild_from(self, dmt: DMT) -> None:
        """Reconstruct all volatile state from a recovered DMT.

        After a crash the persistent DMT is the only truth: free lists,
        byte accounting and LRU recency are rebuilt from its extents
        (recency order is lost by design — it was volatile).  The
        seeded recency follows ``dmt.all_extents()`` order — files in
        first-mapping order, offsets within a file ascending — which is
        deterministic for a given recovered DMT.
        """
        cache_files = list(self._files)
        self._files = {name: _FileSpace(self.capacity) for name in cache_files}
        self._recency.clear()
        self.used = 0
        for extent in dmt.all_extents():
            self._check_file(extent.c_file)
            self._files[extent.c_file].reserve(extent.c_offset, extent.length)
            self.used += extent.length
            self.touch(extent)
        if self.used > self.capacity:
            raise CacheError(
                f"recovered mappings ({self.used}) exceed capacity "
                f"({self.capacity})"
            )

    # -- diagnostics -------------------------------------------------------
    @property
    def free_bytes(self) -> int:
        return self.capacity - self.used

    def _check_file(self, c_file: str) -> None:
        if c_file not in self._files:
            raise CacheError(f"unregistered cache file {c_file!r}")
