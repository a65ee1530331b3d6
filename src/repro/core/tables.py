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
indexes — a sorted pending-fetch order and a benefit min-heap on the
CDT, a dirty-extent dict and running counters on the DMT.  All index
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
import typing

from ..errors import CacheError
from ..intervals import IntervalMap
from ..kvstore import HashDB

#: Upper bound passed to IntervalMap.spans() for whole-map iteration
#: (offsets are byte positions; no file approaches 2**63).
_SPAN_ALL = 1 << 63


@dataclasses.dataclass
class CDTEntry:
    """One critical-data record (D_file, D_offset, Length, C_flag).

    ``c_flag`` and ``benefit`` writes are intercepted so the owning
    :class:`CDT` can maintain its pending-fetch and eviction indexes —
    callers (redirector, rebuilder, tests) assign these attributes
    directly and must not need to know about the indexes.
    """

    d_file: str
    d_offset: int
    length: int
    #: True when a read miss asked the Rebuilder to fetch this data.
    c_flag: bool = False
    #: Benefit computed when the entry was admitted (diagnostics).
    benefit: float = 0.0

    # Back-reference to the owning table plus the admission sequence
    # number (the deterministic tiebreaker for equal benefits).  Plain
    # class attributes — not annotated, hence not dataclass fields —
    # so the generated ``__init__`` runs before a table adopts us.
    _table = None
    _seq = 0

    def __setattr__(self, name: str, value: typing.Any) -> None:
        object.__setattr__(self, name, value)
        if self._table is not None and (name == "c_flag" or name == "benefit"):
            self._table._entry_changed(self)

    @property
    def key(self) -> tuple[str, int, int]:
        return (self.d_file, self.d_offset, self.length)


class CDT:
    """The critical data table.

    Entries are keyed by the exact (file, offset, length) triple —
    repeated request patterns (the common HPC case the paper leans on)
    hit the same entries.  A per-file index answers per-file scans, a
    sorted fetch order of the C_flag entries answers the Rebuilder's
    "what should I fetch" poll, and a lazily-invalidated benefit
    min-heap picks eviction victims; none of these require scanning or
    sorting the whole table.
    """

    def __init__(self, capacity_entries: int | None = None):
        self._entries: dict[tuple[str, int, int], CDTEntry] = {}
        self._by_file: dict[str, dict[tuple[str, int, int], CDTEntry]] = {}
        #: Fetch order of the entries whose C_flag is set: sorted
        #: ``(-benefit, d_file, d_offset, _seq, entry)`` rows.  ``_seq``
        #: is unique, so comparisons never reach ``entry``.
        self._fetch_order: list[tuple] = []
        #: The same rows keyed like ``_entries`` (O(log n) removal).
        self._pending: dict[tuple[str, int, int], tuple] = {}
        #: Eviction heap of ``(benefit, admit_seq, key)`` records.
        #: Records go stale when an entry's benefit changes or the
        #: entry is evicted; they are validated lazily on pop.
        self._benefit_heap: list[tuple[float, int, tuple[str, int, int]]] = []
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
            entry = CDTEntry(d_file, d_offset, length, benefit=benefit)
            self._admit_seq += 1
            entry._seq = self._admit_seq
            entry._table = self
            self._entries[key] = entry
            self._by_file.setdefault(d_file, {})[key] = entry
            heapq.heappush(self._benefit_heap, (benefit, entry._seq, key))
        else:
            ema = self.BENEFIT_EMA
            # Assigning through the entry keeps the benefit heap posted.
            entry.benefit = (1 - ema) * entry.benefit + ema * benefit
        return entry

    # -- index maintenance ----------------------------------------------
    def _entry_changed(self, entry: CDTEntry) -> None:
        """Called by :class:`CDTEntry` on ``c_flag``/``benefit`` writes."""
        key = (entry.d_file, entry.d_offset, entry.length)
        row = self._pending.get(key)
        if entry.c_flag:
            # Re-insert only when the row's sort key actually moved.
            if row is None or row[0] != -entry.benefit:
                if row is not None:
                    self._drop_row(row)
                row = (-entry.benefit, entry.d_file, entry.d_offset,
                       entry._seq, entry)
                bisect.insort(self._fetch_order, row)
                self._pending[key] = row
        elif row is not None:
            del self._pending[key]
            self._drop_row(row)
        heap = self._benefit_heap
        heapq.heappush(heap, (entry.benefit, entry._seq, key))
        # Stale records accumulate one per benefit update; compact the
        # heap once they clearly dominate its size.
        if len(heap) > 64 + 4 * len(self._entries):
            self._rebuild_benefit_heap()

    def _drop_row(self, row: tuple) -> None:
        order = self._fetch_order
        del order[bisect.bisect_left(order, row)]

    def _rebuild_benefit_heap(self) -> None:
        self._benefit_heap = [
            (e.benefit, e._seq, k) for k, e in self._entries.items()
        ]
        heapq.heapify(self._benefit_heap)

    def _remove_entry(self, entry: CDTEntry) -> None:
        key = (entry.d_file, entry.d_offset, entry.length)
        del self._entries[key]
        file_index = self._by_file.get(entry.d_file)
        if file_index is not None:
            file_index.pop(key, None)
            if not file_index:
                del self._by_file[entry.d_file]
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
                and entry.benefit == benefit
            ):
                self._remove_entry(entry)
                return
        if entries:  # pragma: no cover - heap always holds live records
            victim = min(entries.values(), key=lambda e: (e.benefit, e._seq))
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

    def entries_for(self, d_file: str) -> list[CDTEntry]:
        """All entries for one file, in admission order."""
        return list(self._by_file.get(d_file, {}).values())


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
    ) -> typing.Iterator[tuple[int, int, DMTExtent]]:
        """Hit segments of ``[offset, offset+size)``, in offset order.

        Yields ``(seg_start, seg_end, extent)`` for each mapped piece,
        clipped to the queried range — the lazy counterpart of
        :meth:`lookup` that reports no gaps and materialises nothing.
        This is the hit-iteration primitive behind request routing:
        bisect to the first candidate, walk while ranges intersect.
        """
        index = self._by_file.get(d_file)
        if index is None:
            return
        end = offset + size
        for iv_start, iv_end, extent in index.spans(offset, end):
            seg_start = iv_start if iv_start > offset else offset
            seg_end = iv_end if iv_end < end else end
            yield seg_start, seg_end, extent

    def fully_mapped(self, d_file: str, offset: int, size: int) -> bool:
        index = self._by_file.get(d_file)
        return index is not None and index.covered(offset, offset + size)

    def extents_for(self, d_file: str) -> list[DMTExtent]:
        index = self._by_file.get(d_file)
        if index is None:
            return []
        return [extent for _, _, extent in index.spans(0, _SPAN_ALL)]

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
        index = self._by_file.setdefault(d_file, IntervalMap())
        extent = DMTExtent(
            record_id=next(self._ids),
            d_file=d_file,
            d_offset=d_offset,
            c_file=c_file,
            c_offset=c_offset,
            length=length,
            dirty=dirty,
            benefit=benefit,
        )
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
        self.db.put(self._key(extent), extent.to_record())
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
            self.db.put(self._key(extent), extent.to_record())

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

    def _key(self, extent: DMTExtent) -> str:
        return f"{extent.d_file}#{extent.record_id}"

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
