"""Tests for the cache space manager (free lists + clean LRU)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CacheSpace, DMT
from repro.core.space import _FileSpace
from repro.errors import CacheError

CF = "/f.cache"


def make_space(capacity=1000):
    space = CacheSpace(capacity)
    space.register_cache_file(CF)
    return space


def test_free_space_allocation():
    space = make_space(100)
    a = space.find_free_space(CF, 60)
    assert a is not None and a.c_offset == 0 and a.length == 60
    b = space.find_free_space(CF, 40)
    assert b is not None and b.c_offset == 60
    assert space.find_free_space(CF, 1) is None
    assert space.free_bytes == 0


def test_release_makes_space_reusable():
    space = make_space(100)
    a = space.find_free_space(CF, 100)
    space.release(CF, a.c_offset, a.length)
    assert space.free_bytes == 100
    assert space.find_free_space(CF, 100) is not None


def test_double_release_rejected():
    space = make_space(100)
    a = space.find_free_space(CF, 50)
    space.release(CF, a.c_offset, a.length)
    with pytest.raises(CacheError):
        space.release(CF, a.c_offset, a.length)


def test_clean_space_evicts_lru():
    space = make_space(100)
    dmt = DMT()
    exts = []
    for i in range(4):
        a = space.find_free_space(CF, 25)
        ext = dmt.add("/f", i * 25, CF, a.c_offset, 25, dirty=False)
        space.touch(ext)
        exts.append(ext)
    # Touch extent 0 so extent 1 becomes LRU.
    space.touch(exts[0])
    alloc = space.find_clean_space(CF, 25, dmt)
    assert alloc is not None
    assert dmt.lookup("/f", 25, 25)[0][2] is None  # extent 1 evicted
    assert dmt.lookup("/f", 0, 25)[0][2] is exts[0]
    assert space.evictions == 1


def test_clean_space_skips_dirty_extents():
    space = make_space(100)
    dmt = DMT()
    for i in range(4):
        a = space.find_free_space(CF, 25)
        ext = dmt.add("/f", i * 25, CF, a.c_offset, 25, dirty=(i < 2))
        space.touch(ext)
    # Extents 0,1 dirty; 2,3 clean -> two evictions possible.
    assert space.find_clean_space(CF, 25, dmt) is not None
    assert space.find_clean_space(CF, 25, dmt) is not None
    assert space.find_clean_space(CF, 25, dmt) is None  # only dirty left
    assert space.evictions == 2


def test_evict_dirty_rejected():
    space = make_space(100)
    dmt = DMT()
    a = space.find_free_space(CF, 50)
    ext = dmt.add("/f", 0, CF, a.c_offset, 50, dirty=True)
    with pytest.raises(CacheError):
        space.evict(ext, dmt)


def test_zero_capacity_never_allocates():
    space = CacheSpace(0)
    space.register_cache_file(CF)
    assert space.find_free_space(CF, 1) is None
    assert space.find_clean_space(CF, 1, DMT()) is None


def test_unregistered_file_rejected():
    space = CacheSpace(100)
    with pytest.raises(CacheError, match="unregistered cache file"):
        space.find_free_space("/ghost", 10)
    with pytest.raises(CacheError, match="unregistered cache file"):
        space.find_clean_space("/ghost", 10, DMT())
    with pytest.raises(CacheError, match="unregistered cache file"):
        space.release("/ghost", 0, 10)


def test_bad_sizes_rejected():
    space = make_space()
    with pytest.raises(CacheError):
        space.find_free_space(CF, 0)
    with pytest.raises(CacheError):
        CacheSpace(-1)


def test_capacity_shared_across_cache_files():
    space = CacheSpace(100)
    space.register_cache_file("/a.cache")
    space.register_cache_file("/b.cache")
    assert space.find_free_space("/a.cache", 70) is not None
    # Global budget leaves only 30 for the other file.
    assert space.find_free_space("/b.cache", 40) is None
    assert space.find_free_space("/b.cache", 30) is not None


# -- _FileSpace free list ------------------------------------------------

def test_filespace_coalesce_neighbours():
    fs = _FileSpace(100)
    a = fs.allocate(30)
    b = fs.allocate(30)
    c = fs.allocate(40)
    assert (a, b, c) == (0, 30, 60)
    fs.free(0, 30)
    fs.free(60, 40)
    fs.free(30, 30)  # merges with both sides
    assert fs.largest_hole() == 100
    assert fs.free_bytes == 100


def test_filespace_first_fit():
    fs = _FileSpace(100)
    fs.allocate(10)       # [0,10)
    b = fs.allocate(20)   # [10,30)
    fs.allocate(10)       # [30,40)
    fs.free(b, 20)
    # First fit: a 15-byte request lands in the 20-byte hole at 10.
    assert fs.allocate(15) == 10


def test_filespace_free_out_of_bounds():
    fs = _FileSpace(100)
    with pytest.raises(CacheError):
        fs.free(90, 20)


@given(
    st.lists(
        st.tuples(st.booleans(), st.integers(min_value=1, max_value=30)),
        max_size=60,
    )
)
@settings(max_examples=200, deadline=None)
def test_filespace_accounting_invariant(ops):
    """Allocated + free == limit at all times; no overlap ever."""
    fs = _FileSpace(500)
    live: list[tuple[int, int]] = []
    for do_alloc, size in ops:
        if do_alloc or not live:
            offset = fs.allocate(size)
            if offset is not None:
                for o, s in live:
                    assert offset + size <= o or offset >= o + s
                live.append((offset, size))
        else:
            offset, size = live.pop(0)
            fs.free(offset, size)
        assert fs.free_bytes == 500 - sum(s for _, s in live)


# ---------------------------------------------------------------------------
# victim-scan negative-result cache
# ---------------------------------------------------------------------------

def _fill_dirty(space, dmt, n=4, size=25):
    exts = []
    for i in range(n):
        a = space.find_free_space(CF, size)
        ext = dmt.add("/f", i * size, CF, a.c_offset, size, dirty=True)
        space.touch(ext)
        exts.append(ext)
    return exts


def test_victim_cache_sees_clean_transition():
    """A cached 'no victim' answer must be dropped when an extent is
    flushed clean (the rebuilder calls invalidate_evictable)."""
    space = make_space(100)
    dmt = DMT()
    exts = _fill_dirty(space, dmt)
    assert space.find_clean_space(CF, 25, dmt) is None
    # Cached: still None without any state change.
    assert space.find_clean_space(CF, 25, dmt) is None
    dmt.set_dirty(exts[1], False)
    space.invalidate_evictable()
    alloc = space.find_clean_space(CF, 25, dmt)
    assert alloc is not None
    assert space.evictions == 1


def test_victim_cache_sees_unpin():
    space = make_space(100)
    dmt = DMT()
    exts = []
    for i in range(4):
        a = space.find_free_space(CF, 25)
        ext = dmt.add("/f", i * 25, CF, a.c_offset, 25, dirty=False)
        ext.pins = 1
        space.touch(ext)
        exts.append(ext)
    assert space.find_clean_space(CF, 25, dmt) is None
    exts[2].pins = 0
    space.invalidate_evictable()
    alloc = space.find_clean_space(CF, 25, dmt)
    assert alloc is not None
    assert dmt.lookup("/f", 50, 25)[0][2] is None  # extent 2 evicted


def test_victim_cache_sees_new_extent_via_touch():
    space = make_space(100)
    dmt = DMT()
    exts = _fill_dirty(space, dmt, n=4)  # capacity full, all dirty
    assert space.find_clean_space(CF, 25, dmt) is None
    # Replace one dirty extent with a fresh *clean* one (as a completed
    # flush+refetch would): the touch of the new extent must invalidate
    # the cached "no victim" answer on its own.
    dmt.remove(exts[3])
    space.forget(exts[3])
    space.release(CF, exts[3].c_offset, exts[3].length)
    a = space.find_free_space(CF, 25)
    ext = dmt.add("/f", 75, CF, a.c_offset, 25, dirty=False)
    space.touch(ext)
    alloc = space.find_clean_space(CF, 25, dmt)
    assert alloc is not None
    assert space.evictions == 1  # the new clean extent was the victim


def test_victim_cache_threshold_monotonicity():
    """A 'nothing below T' answer also covers any threshold <= T, but a
    higher threshold must rescan."""
    space = make_space(100)
    dmt = DMT()
    for i in range(4):
        a = space.find_free_space(CF, 25)
        ext = dmt.add("/f", i * 25, CF, a.c_offset, 25, dirty=False,
                      benefit=5.0)
        space.touch(ext)
    h = space.fetch_hysteresis
    # All benefits are 5.0: a fetch valued 5.0*h only displaces
    # benefit < 5.0 -> no victim; cached for anything weaker.
    assert space.find_clean_space(CF, 25, dmt, min_benefit=5.0 * h) is None
    assert space.find_clean_space(CF, 25, dmt, min_benefit=4.0 * h) is None
    # A strictly more valuable fetch must rescan and find a victim.
    assert space.find_clean_space(CF, 25, dmt, min_benefit=5.1 * h) is not None


def test_victim_cache_devaluation_path():
    """Lowering a resident's benefit (route-hit reassignment) plus the
    redirector's invalidate call exposes it to pending fetches."""
    space = make_space(100)
    dmt = DMT()
    exts = []
    for i in range(4):
        a = space.find_free_space(CF, 25)
        ext = dmt.add("/f", i * 25, CF, a.c_offset, 25, dirty=False,
                      benefit=5.0)
        space.touch(ext)
        exts.append(ext)
    h = space.fetch_hysteresis
    assert space.find_clean_space(CF, 25, dmt, min_benefit=5.0 * h) is None
    exts[0].benefit = 1.0
    space.invalidate_evictable()
    alloc = space.find_clean_space(CF, 25, dmt, min_benefit=5.0 * h)
    assert alloc is not None
    assert dmt.lookup("/f", 0, 25)[0][2] is None  # devalued extent evicted
