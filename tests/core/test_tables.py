"""Tests for the CDT and DMT."""

import pytest

from repro.core import CDT, DMT
from repro.errors import CacheError
from repro.kvstore import HashDB


# -- CDT ---------------------------------------------------------------

def test_cdt_admit_and_lookup():
    cdt = CDT()
    entry = cdt.admit("/f", 0, 1024, benefit=0.01)
    assert cdt.lookup("/f", 0, 1024) is entry
    assert cdt.lookup("/f", 0, 2048) is None
    assert len(cdt) == 1


def test_cdt_admit_refreshes_benefit_as_ema():
    cdt = CDT()
    first = cdt.admit("/f", 0, 1024, benefit=0.01)
    second = cdt.admit("/f", 0, 1024, benefit=0.05)
    assert first is second
    # Exponential moving average, not overwrite: smooths the distance
    # term's per-sample noise.
    expected = (1 - CDT.BENEFIT_EMA) * 0.01 + CDT.BENEFIT_EMA * 0.05
    assert second.benefit == pytest.approx(expected)
    assert len(cdt) == 1
    # Converges towards a stable observation stream.
    for _ in range(40):
        cdt.admit("/f", 0, 1024, benefit=0.05)
    assert second.benefit == pytest.approx(0.05, rel=0.01)


def test_cdt_pending_fetches_sorted_by_benefit():
    cdt = CDT()
    low = cdt.admit("/f", 0, 10, benefit=0.001)
    high = cdt.admit("/f", 100, 10, benefit=0.1)
    cdt.admit("/f", 200, 10, benefit=0.05)  # C_flag not set
    low.c_flag = True
    high.c_flag = True
    assert cdt.pending_fetches() == [high, low]
    assert cdt.pending_fetches(limit=1) == [high]


def test_cdt_pending_fetches_offset_order_within_benefit():
    cdt = CDT()
    later = cdt.admit("/f", 200, 10, benefit=0.1)
    earlier = cdt.admit("/f", 100, 10, benefit=0.1)
    other = cdt.admit("/e", 300, 10, benefit=0.1)
    for entry in (later, earlier, other):
        entry.c_flag = True
    # Equal benefits tie-break by (d_file, d_offset), not admission.
    assert cdt.pending_fetches() == [other, earlier, later]
    # A benefit change re-ranks; clearing the flag drops the entry.
    later.benefit = 0.2
    assert cdt.pending_fetches() == [later, other, earlier]
    other.c_flag = False
    assert cdt.pending_fetches() == [later, earlier]


def test_cdt_capacity_evicts_lowest_benefit():
    cdt = CDT(capacity_entries=2)
    cdt.admit("/f", 0, 10, benefit=0.5)
    cdt.admit("/f", 10, 10, benefit=0.1)
    cdt.admit("/f", 20, 10, benefit=0.3)
    assert len(cdt) == 2
    assert cdt.lookup("/f", 10, 10) is None  # lowest benefit evicted
    assert cdt.lookup("/f", 0, 10) is not None


# -- DMT ----------------------------------------------------------------

def test_dmt_add_and_lookup():
    dmt = DMT()
    extent = dmt.add("/f", 1000, "/f.cache", 0, 500, dirty=True)
    segs = dmt.lookup("/f", 900, 700)
    assert segs == [(900, 1000, None), (1000, 1500, extent), (1500, 1600, None)]
    assert dmt.fully_mapped("/f", 1000, 500)
    assert not dmt.fully_mapped("/f", 999, 500)
    assert len(dmt) == 1
    assert dmt.mapped_bytes == 500


def test_dmt_lookup_unknown_file_is_all_miss():
    dmt = DMT()
    assert dmt.lookup("/nope", 0, 100) == [(0, 100, None)]


def test_dmt_overlap_rejected():
    dmt = DMT()
    dmt.add("/f", 0, "/c", 0, 100, dirty=False)
    with pytest.raises(CacheError):
        dmt.add("/f", 50, "/c", 200, 100, dirty=False)
    # Adjacent is fine.
    dmt.add("/f", 100, "/c", 100, 100, dirty=False)


def test_dmt_bad_length_rejected():
    dmt = DMT()
    with pytest.raises(CacheError):
        dmt.add("/f", 0, "/c", 0, 0, dirty=False)


def test_dmt_dirty_tracking():
    dmt = DMT()
    a = dmt.add("/f", 0, "/c", 0, 100, dirty=True)
    b = dmt.add("/f", 100, "/c", 100, 100, dirty=False)
    assert dmt.dirty_extents() == [a]
    dmt.set_dirty(a, False)
    assert dmt.dirty_extents() == []
    dmt.set_dirty(b, True)
    assert dmt.dirty_extents() == [b]


def test_dmt_remove():
    dmt = DMT()
    extent = dmt.add("/f", 0, "/c", 0, 100, dirty=False)
    dmt.remove(extent)
    assert dmt.lookup("/f", 0, 100) == [(0, 100, None)]
    with pytest.raises(CacheError):
        dmt.remove(extent)


def test_dmt_persistence_survives_crash():
    db = HashDB("dmt", sync_mode="always")
    dmt = DMT(db)
    a = dmt.add("/f", 0, "/c", 0, 100, dirty=True)
    dmt.add("/f", 200, "/c", 100, 50, dirty=False)
    dmt.set_dirty(a, False)

    dmt.recover()  # simulated power failure + recovery
    assert len(dmt) == 2
    segs = dmt.lookup("/f", 0, 250)
    recovered_a = segs[0][2]
    assert recovered_a is not None
    assert recovered_a.dirty is False  # the set_dirty survived
    assert recovered_a.c_offset == 0
    recovered_b = segs[-1][2]
    assert recovered_b.length == 50


def test_dmt_recovery_removed_extents_stay_removed():
    dmt = DMT()
    extent = dmt.add("/f", 0, "/c", 0, 100, dirty=False)
    dmt.remove(extent)
    dmt.recover()
    assert len(dmt) == 0


def test_dmt_recovery_continues_record_ids():
    dmt = DMT()
    dmt.add("/f", 0, "/c", 0, 100, dirty=False)
    dmt.recover()
    fresh = dmt.add("/f", 200, "/c", 200, 100, dirty=False)
    assert fresh.record_id == 2  # no id reuse after recovery


def test_dmt_all_extents_ordering():
    # Documented contract: files in first-mapping order, offsets within
    # a file ascending.  Both are pure functions of the simulated
    # operation sequence (never hash order), so iteration stays
    # deterministic without re-sorting the file keys on every call.
    dmt = DMT()
    dmt.add("/b", 0, "/cb", 0, 10, dirty=False)
    dmt.add("/a", 50, "/ca", 50, 10, dirty=False)
    dmt.add("/a", 0, "/ca", 0, 10, dirty=False)
    assert [(e.d_file, e.d_offset) for e in dmt.all_extents()] == [
        ("/b", 0), ("/a", 0), ("/a", 50)
    ]
