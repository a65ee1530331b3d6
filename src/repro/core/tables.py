"""The CDT and DMT (§III.C-§III.D, Fig. 5).

Critical Data Table (CDT): which data is performance-critical.  Each
entry holds D_file, D_offset, Length and the C_flag ("the data needs
to be cached in CServers" — set lazily on read misses, consumed by the
Rebuilder).

Data Mapping Table (DMT): which data currently lives in the cache.
Each extent maps a range of the original file to a range of the cache
file, with the D_flag dirty bit.  The DMT is hash-indexed in memory
(interval maps per file) and synchronously persisted through the
Berkeley-DB-like :class:`~repro.kvstore.HashDB`, so it survives
simulated power failures; a :class:`~repro.kvstore.LockManager` key
serialises concurrent metadata access as §III.D describes.

Indexing note: both tables sit on the metadata hot path (every request
consults them; the Rebuilder polls them every epoch), so the queries
that used to be full-table scans are backed by incrementally-maintained
indexes — a sorted pending-fetch order on the CDT (plus a benefit
min-heap when the CDT is bounded, the only case that evicts), a
dirty-extent dict and running counters on the DMT.  An index exists
only where something reads it on the path it costs.  All index
orders are deterministic (admission / dirtying order, or a total order
ending in the admission sequence), never hash-randomised:
iteration over these dicts is insertion-ordered by the language, and
insertions happen in simulation order.
"""

from __future__ import annotations

import bisect
import dataclasses
import heapq
import itertools

from ..errors import CacheError
from ..intervals import IntervalMap
from ..kvstore import HashDB

#: Upper bound passed to IntervalMap.spans() for whole-map iteration
#: (offsets are byte positions; no file approaches 2**63).
_SPAN_ALL = 1 << 63

#: Durable-log records the DMT tolerates beyond twice its live records
#: before it compacts the log (see :meth:`DMT._bound_log`).
WAL_SLACK = 1024


class CDTEntry:
    """One critical-data record (D_file, D_offset, Length, C_flag).

    ``c_flag`` and ``benefit`` are properties whose setters tell the
    owning :class:`CDT`, so it can maintain its pending-fetch and
    eviction indexes — callers (redirector, rebuilder, tests) assign
    these attributes directly and must not need to know about the
    indexes.  Every other write is a plain slot store.  Equality and
    ``repr`` are a dataclass's over the five fields.
    """

    __slots__ = ("d_file", "d_offset", "length", "_c_flag", "_benefit",
                 "_table", "_seq")

    def __init__(self, d_file: str, d_offset: int, length: int,
                 c_flag: bool = False, benefit: float = 0.0):
        self.d_file = d_file
        self.d_offset = d_offset
        self.length = length
        self._c_flag = c_flag
        self._benefit = benefit
        # The owning table and the admission sequence number (the
        # deterministic tiebreaker for equal benefits), set by the
        # table that adopts the entry.
        self._table: CDT | None = None
        self._seq = 0

    @property
    def c_flag(self) -> bool:
        """True when a read miss asked the Rebuilder to fetch this data."""
        return self._c_flag

    @c_flag.setter
    def c_flag(self, value: bool) -> None:
        self._c_flag = value
        if self._table is not None:
            self._table._reindex_fetch(self)

    @property
    def benefit(self) -> float:
        """The benefit's moving average over this entry's observations."""
        return self._benefit

    @benefit.setter
    def benefit(self, value: float) -> None:
        self._benefit = value
        if self._table is not None:
            self._table._benefit_changed(self)

    @property
    def key(self) -> tuple[str, int, int]:
        return (self.d_file, self.d_offset, self.length)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.d_file, self.d_offset, self.length, self._c_flag,
                self._benefit) == (other.d_file, other.d_offset,
                                   other.length, other._c_flag,
                                   other._benefit)

    __hash__ = None  # mutable and compared by value, like a dataclass

    def __repr__(self) -> str:
        return (
            f"{type(self).__qualname__}(d_file={self.d_file!r}, "
            f"d_offset={self.d_offset!r}, length={self.length!r}, "
            f"c_flag={self._c_flag!r}, benefit={self._benefit!r})"
        )


class CDT:
    """The critical data table.

    Entries are keyed by the exact (file, offset, length) triple —
    repeated request patterns (the common HPC case the paper leans on)
    hit the same entries.  A sorted fetch order of the C_flag entries
    answers the Rebuilder's "what should I fetch" poll, and a bounded
    table's lazily-invalidated benefit min-heap picks eviction
    victims; neither requires scanning or sorting the whole table.
    """

    def __init__(self, capacity_entries: int | None = None):
        self._entries: dict[tuple[str, int, int], CDTEntry] = {}
        #: Fetch order of the entries whose C_flag is set: sorted
        #: ``(-benefit, d_file, d_offset, _seq, entry)`` rows.  ``_seq``
        #: is unique, so comparisons never reach ``entry``.
        self._fetch_order: list[tuple] = []
        #: The same rows keyed like ``_entries`` (O(log n) removal).
        self._pending: dict[tuple[str, int, int], tuple] = {}
        #: Eviction heap of ``(benefit, admit_seq, key)`` records, kept
        #: only when the table is bounded (an unbounded table never
        #: evicts, so it keeps none).  Records go stale when an entry's
        #: benefit changes or the entry is evicted; they are validated
        #: lazily on pop.
        self._benefit_heap: list[tuple[float, int, tuple[str, int, int]]] | None = (
            [] if capacity_entries is not None else None
        )
        self._admit_seq = 0
        self.capacity_entries = capacity_entries

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, d_file: str, d_offset: int, length: int) -> CDTEntry | None:
        return self._entries.get((d_file, d_offset, length))

    #: Weight of the newest observation in the benefit moving average.
    BENEFIT_EMA = 0.3

    def admit(
        self, d_file: str, d_offset: int, length: int, benefit: float
    ) -> CDTEntry:
        """Insert (or refresh) an entry for this request.

        Repeated observations update the benefit as an exponential
        moving average: the benefit's distance term is a per-sample
        measurement (a random block's previous request may by chance
        have been nearby), and smoothing keeps an entry's value a
        stable property of its access pattern rather than of the last
        sample — which the space manager's eviction hysteresis relies
        on.
        """
        key = (d_file, d_offset, length)
        entry = self._entries.get(key)
        if entry is None:
            if (
                self.capacity_entries is not None
                and len(self._entries) >= self.capacity_entries
            ):
                self._evict_one()
            entry = CDTEntry(d_file, d_offset, length, False, benefit)
            self._admit_seq = entry._seq = self._admit_seq + 1
            entry._table = self
            self._entries[key] = entry
            if self._benefit_heap is not None:
                heapq.heappush(self._benefit_heap, (benefit, entry._seq, key))
        else:
            ema = self.BENEFIT_EMA
            # Assigning through the entry keeps the indexes posted.
            entry.benefit = (1 - ema) * entry._benefit + ema * benefit
        return entry

    # -- index maintenance ----------------------------------------------
    def _reindex_fetch(self, entry: CDTEntry) -> None:
        """Keep ``entry``'s fetch-order row in step with its C_flag and
        benefit (called by :class:`CDTEntry`'s setters)."""
        key = (entry.d_file, entry.d_offset, entry.length)
        row = self._pending.get(key)
        if entry._c_flag:
            # Re-insert only when the row's sort key actually moved.
            if row is None or row[0] != -entry._benefit:
                if row is not None:
                    self._drop_row(row)
                row = (-entry._benefit, entry.d_file, entry.d_offset,
                       entry._seq, entry)
                bisect.insort(self._fetch_order, row)
                self._pending[key] = row
        elif row is not None:
            del self._pending[key]
            self._drop_row(row)

    def _benefit_changed(self, entry: CDTEntry) -> None:
        """Called by :class:`CDTEntry` on ``benefit`` writes."""
        if entry._c_flag:
            self._reindex_fetch(entry)
        heap = self._benefit_heap
        if heap is not None:
            heapq.heappush(heap, (entry._benefit, entry._seq, entry.key))
            # Stale records accumulate one per benefit update; compact
            # the heap once they clearly dominate its size.
            if len(heap) > 64 + 4 * len(self._entries):
                self._rebuild_benefit_heap()

    def _drop_row(self, row: tuple) -> None:
        order = self._fetch_order
        del order[bisect.bisect_left(order, row)]

    def _rebuild_benefit_heap(self) -> None:
        self._benefit_heap = [
            (e._benefit, e._seq, k) for k, e in self._entries.items()
        ]
        heapq.heapify(self._benefit_heap)

    def _remove_entry(self, entry: CDTEntry) -> None:
        key = (entry.d_file, entry.d_offset, entry.length)
        del self._entries[key]
        row = self._pending.pop(key, None)
        if row is not None:
            self._drop_row(row)
        entry._table = None

    def _evict_one(self) -> None:
        """Drop the lowest-benefit entry (table full).

        Pops the benefit heap until a live record surfaces.  The
        ``(benefit, admit_seq)`` heap order reproduces exactly what the
        old full scan (``min`` by benefit, first-admitted wins ties)
        selected, without touching the other entries.
        """
        heap = self._benefit_heap
        entries = self._entries
        while heap:
            benefit, seq, key = heapq.heappop(heap)
            entry = entries.get(key)
            if (
                entry is not None
                and entry._seq == seq
                and entry._benefit == benefit
            ):
                self._remove_entry(entry)
                return
        # A bounded table's heap always holds the live records; only a
        # table bounded after construction has none and scans.
        if entries:
            victim = min(entries.values(), key=lambda e: (e._benefit, e._seq))
            self._remove_entry(victim)

    # -- queries ---------------------------------------------------------
    def pending_fetches(
        self, limit: int | None = None, budget: int | None = None
    ) -> list[CDTEntry]:
        """Entries whose C_flag asks for a background fetch.

        Highest benefit first, offset-sorted within a benefit:
        ``(-benefit, d_file, d_offset, admission order)``.  A prefix of
        the maintained fetch order — nothing is sorted per call.  With
        ``budget``, entries are taken until their lengths reach that
        many bytes (the entry crossing it included).
        """
        out = []
        spent = 0
        for row in itertools.islice(self._fetch_order, limit):
            if budget is not None and spent >= budget:
                break
            entry = row[-1]
            out.append(entry)
            spent += entry.length
        return out


@dataclasses.dataclass(slots=True)
class DMTExtent:
    """One mapping record (Fig. 5): D_file/D_offset -> C_file/C_offset.

    ``length`` and the dirty bit complete the paper's six fields.  The
    record id keys the persistent store.
    """

    record_id: int
    d_file: str
    d_offset: int
    c_file: str
    c_offset: int
    length: int
    dirty: bool = False
    #: Incremented on every dirtying write; lets the Rebuilder detect
    #: that an extent was re-dirtied while its flush was in flight.
    dirty_epoch: int = 0
    #: Modelled benefit of the request that admitted this extent.
    #: Used by the Rebuilder's benefit-guarded eviction (see space.py).
    benefit: float = 0.0
    #: Transient pin count: extents referenced by an in-flight request
    #: plan must not be evicted until the request's data movement is
    #: done (never persisted — pins die with the process).
    pins: int = 0

    def to_record(self) -> dict:
        # Field order matches the dataclass (what asdict would emit);
        # pins are transient and deliberately not persisted.  Built by
        # hand because every DMT mutation writes through a record and
        # asdict's recursive copy machinery dominates the metadata
        # write path.
        return {
            "record_id": self.record_id,
            "d_file": self.d_file,
            "d_offset": self.d_offset,
            "c_file": self.c_file,
            "c_offset": self.c_offset,
            "length": self.length,
            "dirty": self.dirty,
            "dirty_epoch": self.dirty_epoch,
            "benefit": self.benefit,
        }

    @classmethod
    def from_record(cls, record: dict) -> "DMTExtent":
        return cls(**record)


class DMT:
    """The data mapping table: in-memory interval index + durable log.

    Every mutation is written through to the HashDB (sync_mode
    "always", matching the paper's synchronous metadata writes) so a
    :meth:`recover` after a crash rebuilds the same mappings.

    Iteration-order contract (deterministic, DET003-safe): files are
    visited in first-mapping order and extents within a file in offset
    order; :meth:`dirty_extents` yields dirtying order.  Both orders
    are pure functions of the simulated operation sequence.  Consumers
    needing a different order (the Rebuilder's flush plan sorts by
    ``(d_file, d_offset)``) sort the — now pre-filtered — result.
    """

    def __init__(self, db: HashDB | None = None):
        self.db = db if db is not None else HashDB("dmt")
        self._by_file: dict[str, IntervalMap[DMTExtent]] = {}
        #: Dirty extents by record id, in dirtying order.
        self._dirty: dict[int, DMTExtent] = {}
        #: Interval count / byte count, maintained incrementally so
        #: ``len(dmt)`` and ``mapped_bytes`` stop summing per call.
        self._count = 0
        self._bytes = 0
        self._ids = itertools.count(1)

    # -- queries --------------------------------------------------------
    def lookup(
        self, d_file: str, offset: int, size: int
    ) -> list[tuple[int, int, DMTExtent | None]]:
        """Tile [offset, offset+size) into hit/miss segments."""
        index = self._by_file.get(d_file)
        if index is None:
            return [(offset, offset + size, None)]
        return index.lookup(offset, offset + size)

    def overlaps(self, d_file: str, offset: int, size: int) -> bool:
        """True if any byte of ``[offset, offset+size)`` is mapped."""
        index = self._by_file.get(d_file)
        return index is not None and index.overlaps(offset, offset + size)

    def extents_overlapping(
        self, d_file: str, offset: int, size: int
    ) -> list[tuple[int, int, DMTExtent]]:
        """Hit segments of ``[offset, offset+size)``, in offset order.

        ``(seg_start, seg_end, extent)`` for each mapped piece, clipped
        to the queried range — the counterpart of :meth:`lookup` that
        reports no gaps.  This is the hit query behind request routing
        (bisect to the first candidate, walk while ranges intersect);
        the router mutates the DMT while it walks the result, so it is
        a list.
        """
        index = self._by_file.get(d_file)
        if index is None:
            return []
        end = offset + size
        return [
            (iv_start if iv_start > offset else offset,
             iv_end if iv_end < end else end,
             extent)
            for iv_start, iv_end, extent in index.spans(offset, end)
        ]

    def fully_mapped(self, d_file: str, offset: int, size: int) -> bool:
        index = self._by_file.get(d_file)
        return index is not None and index.covered(offset, offset + size)

    def all_extents(self) -> list[DMTExtent]:
        """Every extent: files in first-mapping order, offsets within."""
        return [
            extent
            for index in self._by_file.values()
            for _, _, extent in index.spans(0, _SPAN_ALL)
        ]

    def dirty_extents(self, limit: int | None = None) -> list[DMTExtent]:
        """Dirty extents in dirtying order, from the dirty index."""
        if limit is None:
            return list(self._dirty.values())
        return list(itertools.islice(self._dirty.values(), limit))

    def __len__(self) -> int:
        return self._count

    @property
    def mapped_bytes(self) -> int:
        return self._bytes

    # -- mutation -----------------------------------------------------------
    def add(
        self,
        d_file: str,
        d_offset: int,
        c_file: str,
        c_offset: int,
        length: int,
        dirty: bool,
        benefit: float = 0.0,
    ) -> DMTExtent:
        """Map a fresh range.

        Overlapping an existing mapping is a :class:`CacheError`:
        Algorithm 1 always *reuses* existing mappings for mapped
        segments (line 22) and only admits the unmapped remainder, so
        a legal caller never double-maps.  Keeping this strict makes
        crash recovery trivially sound (records never contradict each
        other).
        """
        if length <= 0:
            raise CacheError(f"DMT extent length must be positive: {length}")
        index = self._by_file.get(d_file)
        if index is None:
            index = self._by_file[d_file] = IntervalMap()
        extent = DMTExtent(next(self._ids), d_file, d_offset, c_file,
                           c_offset, length, dirty, 0, benefit)
        try:
            index.add(d_offset, d_offset + length, extent)
        except ValueError as exc:
            raise CacheError(
                f"DMT overlap: {d_file!r} [{d_offset}, {d_offset + length}) "
                "is already (partially) mapped"
            ) from exc
        self._count += 1
        self._bytes += length
        if dirty:
            self._dirty[extent.record_id] = extent
        self._persist(extent)
        return extent

    def set_dirty(self, extent: DMTExtent, dirty: bool) -> None:
        # Any caller flipping an extent clean must also invalidate the
        # CacheSpace victim-scan cache (CacheSpace.invalidate_evictable)
        # if the extent lives in a space manager's LRU.
        if extent.dirty != dirty:
            extent.dirty = dirty
            if dirty:
                self._dirty[extent.record_id] = extent
            else:
                self._dirty.pop(extent.record_id, None)
            self._persist(extent)

    def remove(self, extent: DMTExtent) -> None:
        """Unmap an extent entirely (eviction)."""
        index = self._by_file.get(extent.d_file)
        if index is None:
            raise CacheError(f"remove of unknown extent {extent}")
        try:
            index.remove_exact(extent.d_offset, extent.d_offset + extent.length)
        except KeyError as exc:
            raise CacheError(f"remove of unmapped extent {extent}") from exc
        self._count -= 1
        self._bytes -= extent.length
        self._dirty.pop(extent.record_id, None)
        self.db.delete(self._key(extent))
        self._bound_log()

    def _key(self, extent: DMTExtent) -> str:
        return f"{extent.d_file}#{extent.record_id}"

    def _persist(self, extent: DMTExtent) -> None:
        self.db.put(self._key(extent), extent.to_record())
        self._bound_log()

    def _bound_log(self) -> None:
        """Compact the durable log once it outgrows the live records.

        Every mutation appends a record, so without this the log holds
        every record ever written.  A log past twice the live records
        plus :data:`WAL_SLACK` is rewritten as one record per live key;
        replaying it rebuilds the same map, and :meth:`recover` reads
        the keys sorted, so recovery is unchanged.  Only a store that
        syncs every mutation compacts: compaction syncs, which would
        make a manual-sync store's pending records durable early.
        """
        db = self.db
        if (db.durable_log_length > 2 * self._count + WAL_SLACK
                and db.sync_mode == "always"):
            db.compact()

    # -- durability ------------------------------------------------------
    def recover(self) -> None:
        """Rebuild the in-memory index from the durable store."""
        self.db.crash()
        self._by_file.clear()
        max_id = 0
        for _, record in self.db.items():
            extent = DMTExtent.from_record(record)
            max_id = max(max_id, extent.record_id)
            index = self._by_file.setdefault(extent.d_file, IntervalMap())
            index.clear_range(extent.d_offset, extent.d_offset + extent.length)
            index.set(extent.d_offset, extent.d_offset + extent.length, extent)
        # Derived indexes/counters are functions of the rebuilt maps.
        # Dirty order after recovery is index order (file-then-offset),
        # which is deterministic for a given durable-record sequence.
        self._dirty = {}
        self._count = 0
        self._bytes = 0
        for index in self._by_file.values():
            self._count += len(index)
            self._bytes += index.total_bytes
            for _, _, e in index.spans(0, _SPAN_ALL):
                if e.dirty:
                    self._dirty.setdefault(e.record_id, e)
        self._ids = itertools.count(max_id + 1)
