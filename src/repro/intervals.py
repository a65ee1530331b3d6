"""Generic byte-range interval map.

Maps half-open byte ranges ``[start, end)`` to values, keeping entries
non-overlapping and sorted.  Writing over existing ranges splits or
truncates them.  This is the workhorse behind:

- file content tracking (range -> write stamp) used to verify data
  consistency through the cache, and
- the DMT (range in the original file -> location in the cache file).

Storage is three parallel lists (``_starts``/``_ends``/``_values``)
rather than a list of interval objects: a mapped extent costs two ints
in compact lists plus the value reference, not a boxed node.  The
:class:`Interval` record still exists as the *query-surface* type —
``__iter__``/``overlapping``/``clear_range`` construct instances
lazily for callers that want them — while :meth:`spans` exposes the
raw ``(start, end, value)`` triples for hot paths that don't.
"""

from __future__ import annotations

import bisect
import dataclasses
import typing

T = typing.TypeVar("T")


@dataclasses.dataclass(frozen=True, slots=True)
class Interval(typing.Generic[T]):
    """One mapped range ``[start, end)`` with its value."""

    start: int
    end: int
    value: T

    def __post_init__(self) -> None:
        if self.start < 0 or self.end <= self.start:
            raise ValueError(f"bad interval [{self.start}, {self.end})")

    @property
    def length(self) -> int:
        return self.end - self.start


class IntervalMap(typing.Generic[T]):
    """Sorted, non-overlapping map from byte ranges to values."""

    __slots__ = ("_starts", "_ends", "_values", "_total_bytes")

    def __init__(self) -> None:
        self._starts: list[int] = []
        self._ends: list[int] = []
        self._values: list[T] = []
        self._total_bytes = 0

    def __len__(self) -> int:
        return len(self._starts)

    def __iter__(self) -> typing.Iterator[Interval[T]]:
        for i in range(len(self._starts)):
            yield Interval(self._starts[i], self._ends[i], self._values[i])

    @property
    def total_bytes(self) -> int:
        """Sum of mapped range lengths (maintained incrementally)."""
        return self._total_bytes

    # -- mutation --------------------------------------------------------
    def set(self, start: int, end: int, value: T) -> None:
        """Map ``[start, end)`` to ``value``, overwriting overlaps."""
        if end <= start or start < 0:
            raise ValueError(f"bad range [{start}, {end})")
        starts = self._starts
        idx = bisect.bisect_left(starts, start)
        # Only a neighbour can overlap; a range that lands in a gap (a
        # first write of fresh bytes) is inserted without a clear pass.
        if (idx and self._ends[idx - 1] > start) or (
            idx < len(starts) and starts[idx] < end
        ):
            self._clear(start, end, None)
            idx = bisect.bisect_left(starts, start)
        starts.insert(idx, start)
        self._ends.insert(idx, end)
        self._values.insert(idx, value)
        self._total_bytes += end - start

    def add(self, start: int, end: int, value: T) -> None:
        """Map ``[start, end)``, which must not overlap anything.

        The no-overwrite variant of :meth:`set`: one bisect and one
        insert, no clear pass.  Raises ``ValueError`` on overlap —
        callers use it when they have already established vacancy
        (e.g. the DMT, which treats overlap as a distinct error).
        """
        if end <= start or start < 0:
            raise ValueError(f"bad range [{start}, {end})")
        starts = self._starts
        ends = self._ends
        idx = bisect.bisect_left(starts, start)
        if idx > 0 and ends[idx - 1] > start:
            raise ValueError(
                f"[{start}, {end}) overlaps "
                f"[{starts[idx - 1]}, {ends[idx - 1]})"
            )
        if idx < len(starts) and starts[idx] < end:
            raise ValueError(
                f"[{start}, {end}) overlaps [{starts[idx]}, {ends[idx]})"
            )
        starts.insert(idx, start)
        ends.insert(idx, end)
        self._values.insert(idx, value)
        self._total_bytes += end - start

    def clear_range(self, start: int, end: int) -> list[Interval[T]]:
        """Unmap ``[start, end)``; returns the removed (clipped) pieces."""
        removed: list[Interval[T]] = []
        if end > start:
            self._clear(start, end, removed)
        return removed

    def _clear(
        self, start: int, end: int, removed: list[Interval[T]] | None
    ) -> None:
        """Unmap ``[start, end)`` (non-empty), appending the clipped
        pieces to ``removed`` unless it is None (:meth:`set` discards
        them, so it builds none)."""
        starts = self._starts
        ends = self._ends
        values = self._values
        idx = bisect.bisect_right(starts, start) - 1
        if idx < 0:
            idx = 0
        keep_left: tuple[int, int, T] | None = None
        keep_right: tuple[int, int, T] | None = None
        first_removed = None
        while idx < len(starts):
            i_start = starts[idx]
            if i_start >= end:
                break
            i_end = ends[idx]
            if i_end <= start:
                idx += 1
                continue
            # Overlapping entry: clip out the middle.
            value = values[idx]
            if i_start < start:
                keep_left = (i_start, start, value)
            if i_end > end:
                keep_right = (end, i_end, value)
            c_start = i_start if i_start > start else start
            c_end = i_end if i_end < end else end
            if removed is not None:
                removed.append(Interval(c_start, c_end, value))
            self._total_bytes -= c_end - c_start
            if first_removed is None:
                first_removed = idx
            del starts[idx]
            del ends[idx]
            del values[idx]
        insert_at = first_removed if first_removed is not None else bisect.bisect_left(
            starts, start
        )
        for piece in (keep_right, keep_left):
            if piece is not None:
                starts.insert(insert_at, piece[0])
                ends.insert(insert_at, piece[1])
                values.insert(insert_at, piece[2])

    def remove_exact(self, start: int, end: int) -> Interval[T]:
        """Remove an interval that must exist with these exact bounds."""
        starts = self._starts
        idx = bisect.bisect_left(starts, start)
        if idx < len(starts) and starts[idx] == start and self._ends[idx] == end:
            item = Interval(start, end, self._values[idx])
            del starts[idx]
            del self._ends[idx]
            del self._values[idx]
            self._total_bytes -= end - start
            return item
        raise KeyError(f"no exact interval [{start}, {end})")

    # -- queries -----------------------------------------------------------
    def lookup(
        self, start: int, end: int
    ) -> list[tuple[int, int, T | None]]:
        """Cover ``[start, end)`` with mapped and unmapped segments.

        Returns ``(seg_start, seg_end, value_or_None)`` tuples in order,
        exactly tiling the queried range.  ``None`` marks gaps.
        """
        if end <= start:
            return []
        starts = self._starts
        ends = self._ends
        values = self._values
        out: list[tuple[int, int, T | None]] = []
        pos = start
        idx = bisect.bisect_right(starts, start) - 1
        if idx < 0:
            idx = 0
        n = len(starts)
        while pos < end and idx < n:
            if ends[idx] <= pos:
                idx += 1
                continue
            i_start = starts[idx]
            if i_start >= end:
                break
            if i_start > pos:
                out.append((pos, i_start, None))
                pos = i_start
            seg_end = min(ends[idx], end)
            out.append((pos, seg_end, values[idx]))
            pos = seg_end
            idx += 1
        if pos < end:
            out.append((pos, end, None))
        return out

    def spans(
        self, start: int, end: int
    ) -> typing.Iterator[tuple[int, int, T]]:
        """Yield ``(start, end, value)`` for entries intersecting the range.

        The raw-triple sibling of :meth:`overlapping`: same order, same
        unclipped bounds, but no :class:`Interval` objects — this is the
        zero-allocation iteration primitive the DMT read path uses.
        """
        if end <= start:
            return
        starts = self._starts
        ends = self._ends
        values = self._values
        idx = bisect.bisect_right(starts, start) - 1
        if idx < 0:
            idx = 0
        n = len(starts)
        while idx < n:
            i_start = starts[idx]
            if i_start >= end:
                break
            i_end = ends[idx]
            if i_end > start:
                yield i_start, i_end, values[idx]
            idx += 1

    def overlapping(
        self, start: int, end: int
    ) -> typing.Iterator[Interval[T]]:
        """Yield the mapped intervals intersecting ``[start, end)``.

        Intervals come back in offset order, *unclipped* (a hit that
        straddles a query edge is returned whole).  Unlike
        :meth:`lookup` this reports no gaps; instances are built
        lazily per hit (use :meth:`spans` to avoid even that).
        """
        for i_start, i_end, value in self.spans(start, end):
            yield Interval(i_start, i_end, value)

    def covered(self, start: int, end: int) -> bool:
        """True if every byte in ``[start, end)`` is mapped."""
        if end <= start:
            return True
        starts = self._starts
        ends = self._ends
        idx = bisect.bisect_right(starts, start) - 1
        if idx < 0:
            return False
        pos = start
        n = len(starts)
        while True:
            if starts[idx] > pos or ends[idx] <= pos:
                return False
            pos = ends[idx]
            if pos >= end:
                return True
            idx += 1
            if idx >= n:
                return False

    def overlaps(self, start: int, end: int) -> bool:
        """True if any byte in ``[start, end)`` is mapped."""
        if end <= start:
            return False
        starts = self._starts
        idx = bisect.bisect_right(starts, start)
        if idx > 0 and self._ends[idx - 1] > start:
            return True
        return idx < len(starts) and starts[idx] < end

    def value_at(self, offset: int) -> T | None:
        """Value mapped at a single byte offset, or None."""
        idx = bisect.bisect_right(self._starts, offset) - 1
        if idx >= 0 and self._ends[idx] > offset:
            return self._values[idx]
        return None

    def check_invariants(self) -> None:
        """Assert sortedness, non-overlap and counter consistency
        (used by property tests)."""
        starts = self._starts
        ends = self._ends
        if not (len(starts) == len(ends) == len(self._values)):
            raise AssertionError("parallel arrays out of sync")
        for i in range(len(starts)):
            if ends[i] <= starts[i]:
                raise AssertionError(
                    f"bad interval [{starts[i]}, {ends[i]})"
                )
            if i and ends[i - 1] > starts[i]:
                raise AssertionError(
                    f"overlap: [{starts[i - 1]}, {ends[i - 1]}) then "
                    f"[{starts[i]}, {ends[i]})"
                )
        actual = sum(e - s for s, e in zip(starts, ends))
        if self._total_bytes != actual:
            raise AssertionError(
                f"total_bytes drift: cached {self._total_bytes}, "
                f"actual {actual}"
            )
