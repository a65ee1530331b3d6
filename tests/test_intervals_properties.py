"""Randomised property tests for IntervalMap against a byte-map oracle.

The interval map backs both file-content stamp tracking and the DMT's
per-file index, so its query results must match a brute-force
byte-level reference for any operation sequence.  Seeded generators
keep every run reproducible.
"""

import random

import pytest

from repro.intervals import IntervalMap

SPACE = 256  # small enough that collisions/splits happen constantly


class ByteOracle:
    """Reference model: one value (or None) per byte offset."""

    def __init__(self):
        self.bytes: list = [None] * SPACE

    def set(self, start, end, value):
        for i in range(start, end):
            self.bytes[i] = value

    def clear(self, start, end):
        for i in range(start, end):
            self.bytes[i] = None

    def value_at(self, offset):
        return self.bytes[offset]

    def covered(self, start, end):
        return all(v is not None for v in self.bytes[start:end])

    def overlaps(self, start, end):
        return any(v is not None for v in self.bytes[start:end])

    def lookup_values(self, start, end):
        """Per-byte values over [start, end) — the flattened lookup()."""
        return self.bytes[start:end]


def random_range(rng):
    start = rng.randrange(0, SPACE - 1)
    end = rng.randrange(start + 1, min(start + 48, SPACE) + 1)
    return start, end


def flatten_lookup(segments, start, end):
    """Expand lookup() segments back to one value per byte."""
    out = []
    for seg_start, seg_end, value in segments:
        out.extend([value] * (seg_end - seg_start))
    assert segments[0][0] == start and segments[-1][1] == end
    for (_, a_end, _), (b_start, _, _) in zip(segments, segments[1:]):
        assert a_end == b_start, "lookup segments must tile contiguously"
    return out


@pytest.mark.parametrize("seed", range(8))
def test_random_ops_match_byte_oracle(seed):
    rng = random.Random(seed)
    imap: IntervalMap = IntervalMap()
    oracle = ByteOracle()
    for step in range(400):
        op = rng.random()
        start, end = random_range(rng)
        if op < 0.55:
            value = (step, start)
            imap.set(start, end, value)
            oracle.set(start, end, value)
        elif op < 0.8:
            removed = imap.clear_range(start, end)
            # Removed pieces are clipped to the query and non-empty.
            for piece in removed:
                assert start <= piece.start < piece.end <= end
            oracle.clear(start, end)
        else:
            # add() must refuse exactly when the oracle sees overlap.
            if oracle.overlaps(start, end):
                with pytest.raises(ValueError):
                    imap.add(start, end, "dup")
            else:
                imap.add(start, end, (step, start))
                oracle.set(start, end, (step, start))
        imap.check_invariants()

        q_start, q_end = random_range(rng)
        assert flatten_lookup(
            imap.lookup(q_start, q_end), q_start, q_end
        ) == oracle.lookup_values(q_start, q_end)
        assert imap.covered(q_start, q_end) == oracle.covered(q_start, q_end)
        assert imap.overlaps(q_start, q_end) == oracle.overlaps(q_start, q_end)
        offset = rng.randrange(0, SPACE)
        assert imap.value_at(offset) == oracle.value_at(offset)

    assert imap.total_bytes == sum(
        1 for v in oracle.bytes if v is not None
    )


@pytest.mark.parametrize("entries, new", [
    # A gap whose neighbours touch it at both ends.
    ([(10, 20), (30, 40)], (20, 30)),
    # The map's first position, touching the first entry.
    ([(10, 20), (30, 40)], (0, 10)),
    # The map's last position, touching the last entry.
    ([(10, 20), (30, 40)], (40, 50)),
    # An empty map.
    ([], (5, 15)),
    # One byte into the left, then the right neighbour: these must
    # clear, not insert beside the neighbour.
    ([(10, 21), (30, 40)], (20, 30)),
    ([(10, 20), (29, 40)], (20, 30)),
])
def test_set_into_gaps_and_edges_matches_byte_oracle(entries, new):
    imap: IntervalMap = IntervalMap()
    oracle = ByteOracle()
    for start, end in entries:
        imap.set(start, end, ("old", start))
        oracle.set(start, end, ("old", start))
    imap.set(new[0], new[1], "new")
    oracle.set(new[0], new[1], "new")
    imap.check_invariants()
    assert flatten_lookup(imap.lookup(0, SPACE), 0, SPACE) == (
        oracle.lookup_values(0, SPACE)
    )
    assert imap.total_bytes == sum(1 for v in oracle.bytes if v is not None)
    assert len(imap) == len(entries) + 1


@pytest.mark.parametrize("seed", range(4))
def test_overlapping_is_unclipped_and_ordered(seed):
    rng = random.Random(1000 + seed)
    imap: IntervalMap = IntervalMap()
    oracle = ByteOracle()
    for step in range(120):
        start, end = random_range(rng)
        value = (step, start)
        imap.set(start, end, value)
        oracle.set(start, end, value)

    for _ in range(200):
        q_start, q_end = random_range(rng)
        got = list(imap.overlapping(q_start, q_end))
        # Ordered, unclipped, and exactly the intervals with a byte in
        # the query window.
        assert got == sorted(got, key=lambda item: item.start)
        expected = [
            item for item in imap
            if item.start < q_end and item.end > q_start
        ]
        assert got == expected
        for item in got:
            assert oracle.overlaps(
                max(item.start, q_start), min(item.end, q_end)
            )


def test_remove_exact_requires_exact_bounds():
    imap: IntervalMap = IntervalMap()
    imap.set(10, 20, "a")
    with pytest.raises(KeyError):
        imap.remove_exact(10, 19)
    with pytest.raises(KeyError):
        imap.remove_exact(11, 20)
    assert imap.remove_exact(10, 20).value == "a"
    assert len(imap) == 0 and imap.total_bytes == 0
