"""Tests for write-stamp content tracking."""

from repro.pfs.content import FileContent, merge_stamp_segments, next_stamp


def test_stamps_are_unique_and_increasing():
    a, b, c = next_stamp(), next_stamp(), next_stamp()
    assert a < b < c


def test_read_after_write_sees_stamp():
    content = FileContent()
    stamp = next_stamp()
    content.write(100, 50, stamp)
    assert content.read(100, 50) == [(100, 150, stamp)]


def test_unwritten_ranges_are_none():
    content = FileContent()
    stamp = next_stamp()
    content.write(10, 10, stamp)
    assert content.read(0, 30) == [
        (0, 10, None),
        (10, 20, stamp),
        (20, 30, None),
    ]


def test_overwrite_replaces_stamp():
    content = FileContent()
    s1, s2 = next_stamp(), next_stamp()
    content.write(0, 100, s1)
    content.write(25, 50, s2)
    assert content.read(0, 100) == [
        (0, 25, s1),
        (25, 75, s2),
        (75, 100, s1),
    ]


def test_zero_size_write_is_noop():
    content = FileContent()
    content.write(0, 0, next_stamp())
    assert content.written_bytes() == 0


def test_copy_range_preserves_stamps():
    src = FileContent()
    dst = FileContent()
    s1, s2 = next_stamp(), next_stamp()
    src.write(0, 50, s1)
    src.write(50, 50, s2)
    dst.copy_range_from(src, src_offset=25, dst_offset=1000, size=50)
    assert dst.read(1000, 50) == [(1000, 1025, s1), (1025, 1050, s2)]


def test_copy_range_with_holes_clears_destination():
    src = FileContent()
    dst = FileContent()
    stale = next_stamp()
    dst.write(1000, 100, stale)
    fresh = next_stamp()
    src.write(20, 10, fresh)
    dst.copy_range_from(src, src_offset=0, dst_offset=1000, size=100)
    assert dst.read(1000, 100) == [
        (1000, 1020, None),
        (1020, 1030, fresh),
        (1030, 1100, None),
    ]


def test_merge_stamp_segments_sorts_and_joins_equal_neighbours():
    # Pieces of one read, out of order: adjacent pieces with one stamp
    # (unwritten included) join; a gap or a new stamp starts a segment.
    pieces = [(30, 40, 7), (0, 10, None), (20, 30, 7), (10, 20, None),
              (40, 50, 8), (60, 70, 8)]
    assert merge_stamp_segments(pieces) == [
        (0, 20, None), (20, 40, 7), (40, 50, 8), (60, 70, 8),
    ]
    assert merge_stamp_segments([]) == []
