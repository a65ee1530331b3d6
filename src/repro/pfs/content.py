"""Write-stamp content tracking.

Simulating real gigabytes of file data byte-for-byte would be wasteful;
what the consistency guarantees need is *which write* each byte
currently reflects.  Every write carries a unique stamp and updates an
interval map; reads return the stamps covering the requested range.
Tests assert read-after-write visibility through every redirection path
(DServers, CServers, flush, fetch, eviction).
"""

from __future__ import annotations

import itertools
import typing

from ..intervals import IntervalMap

#: Stamp value for bytes that were never written.
UNWRITTEN = None

_stamp_counter = itertools.count(1)


def next_stamp() -> int:
    """Globally unique, monotonically increasing write stamp."""
    return next(_stamp_counter)


def merge_stamp_segments(
    segments: typing.Iterable[tuple[int, int, int | None]],
) -> list[tuple[int, int, int | None]]:
    """Sort disjoint ``(start, end, stamp)`` segments and join the
    adjacent ones that carry the same stamp.

    A read assembled from several pieces (redirected steps, placed
    regions, cached blocks) then compares equal to a plain PFS read of
    the same bytes.
    """
    merged: list[tuple[int, int, int | None]] = []
    for seg in sorted(segments):
        if merged and merged[-1][1] == seg[0] and merged[-1][2] == seg[2]:
            merged[-1] = (merged[-1][0], seg[1], seg[2])
        else:
            merged.append(seg)
    return merged


class FileContent:
    """Stamp map for one logical file."""

    def __init__(self) -> None:
        self._map: IntervalMap[int] = IntervalMap()

    def write(self, offset: int, size: int, stamp: int) -> None:
        """Record that ``[offset, offset+size)`` now holds ``stamp``."""
        if size <= 0:
            return
        self._map.set(offset, offset + size, stamp)

    def read(self, offset: int, size: int) -> list[tuple[int, int, int | None]]:
        """Stamps covering the range: (seg_start, seg_end, stamp|None)."""
        return self._map.lookup(offset, offset + size)

    def stamp_at(self, offset: int) -> int | None:
        return self._map.value_at(offset)

    def written_bytes(self) -> int:
        return self._map.total_bytes

    def copy_range_from(
        self, other: "FileContent", src_offset: int, dst_offset: int, size: int
    ) -> None:
        """Copy stamps from ``other`` (models a data migration).

        Unwritten source bytes clear the destination range (they carry
        no data).
        """
        for seg_start, seg_end, stamp in other.read(src_offset, size):
            rel = seg_start - src_offset
            if stamp is None:
                self._map.clear_range(
                    dst_offset + rel, dst_offset + rel + (seg_end - seg_start)
                )
            else:
                self.write(dst_offset + rel, seg_end - seg_start, stamp)
