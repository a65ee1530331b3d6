"""Tests for the Rebuilder: flush, fetch, priorities, interference."""

import pytest

from repro.mpiio import MPIFile
from repro.sim.resources import PRIORITY_LOW, PRIORITY_NORMAL
from repro.units import KiB, MiB


def open_and_write(mw, offsets, size=16 * KiB):
    """Write critical data at the given far-apart offsets."""

    def body():
        f = yield from MPIFile.open(mw, 0, "/data", 64 * MiB)
        stamps = {}
        for off in offsets:
            res = yield from f.write_at(off, size)
            stamps[off] = res.stamp
        return f, stamps

    return body


def test_periodic_cycles_run_while_files_open(s4d_cluster):
    mw = s4d_cluster.middleware
    sim = s4d_cluster.sim

    def body():
        f = yield from MPIFile.open(mw, 0, "/data", 64 * MiB)
        yield from f.write_at(32 * MiB, 16 * KiB)
        yield sim.timeout(2.0)  # several rebuild intervals pass
        yield from f.close()

    sim.run_process(body())
    assert mw.rebuilder.cycles >= 2
    assert mw.metrics.flushes == 1


def test_flush_marks_clean_and_space_becomes_evictable(s4d_cluster):
    mw = s4d_cluster.middleware
    sim = s4d_cluster.sim

    def body():
        f, _ = yield from open_and_write(mw, [0, 8 * MiB, 24 * MiB])()
        yield from mw.rebuilder.drain()
        yield from f.close()

    sim.run_process(body())
    assert all(not e.dirty for e in mw.dmt.all_extents())
    assert mw.metrics.flushed_bytes == 3 * 16 * KiB


def test_redirty_during_flush_keeps_extent_dirty(s4d_cluster):
    """A write racing the flush must not be marked clean away."""
    mw = s4d_cluster.middleware
    sim = s4d_cluster.sim

    def body():
        f, _ = yield from open_and_write(mw, [32 * MiB])()
        extent = mw.dmt.all_extents()[0]
        flush = sim.spawn(mw.rebuilder.flush_pass(1 << 30))
        # Re-dirty while the flush I/O is in flight.
        yield sim.timeout(1e-4)
        res = yield from f.write_at(32 * MiB, 16 * KiB)
        yield flush
        yield from f.close()
        return extent, res

    extent, res = sim.run_process(body())
    assert extent.dirty  # re-dirtied write survives the flush
    # And a subsequent read still sees the newest stamp.

    def check():
        f = yield from MPIFile.open(mw, 0, "/data", 64 * MiB)
        rres = yield from f.read_at(32 * MiB, 16 * KiB)
        yield from f.close()
        return rres

    rres = sim.run_process(check())
    assert rres.segments[0][2] == res.stamp


def test_fetch_skips_already_mapped_segments(s4d_quiet_cluster):
    mw = s4d_quiet_cluster.middleware
    sim = s4d_quiet_cluster.sim

    def body():
        f = yield from MPIFile.open(mw, 0, "/data", 64 * MiB)
        # Populate DServers with a large write, then read two small
        # pieces to mark them critical; cache one by writing it.
        yield from f.write_at(0, 4 * MiB)
        mw.identifier.reset_streams()
        yield from f.read_at(0, 16 * KiB)
        yield from f.read_at(2 * MiB, 16 * KiB)
        yield from f.write_at(0, 16 * KiB)  # now mapped by the write
        fetched_before = mw.metrics.fetched_bytes
        yield from mw.rebuilder.drain()
        yield from f.close()
        return fetched_before

    sim.run_process(body())
    # Only the unmapped mark was fetched.
    assert mw.metrics.fetched_bytes == 16 * KiB
    assert mw.dmt.fully_mapped("/data", 2 * MiB, 16 * KiB)
    # ...and the mapped one was never even read off the DServers: the
    # mover's OPFS traffic is exactly the flushes plus that one fetch.
    assert mw._mover_opfs.bytes_moved == (
        mw.metrics.flushed_bytes + mw.metrics.fetched_bytes
    )


def test_fetch_does_not_evict_equal_benefit_data(tiny_cache_cluster):
    """The churn guard: equal-benefit fetches never displace data."""
    mw = tiny_cache_cluster.middleware
    sim = tiny_cache_cluster.sim
    offsets = [i * 8 * MiB for i in range(8)]  # 8 x 16KB > 64KB cache

    def body():
        f = yield from MPIFile.open(mw, 0, "/data", 64 * MiB)
        yield from f.write_at(0, 8 * MiB)  # backing data, non-critical
        mw.identifier.reset_streams()
        for off in offsets:
            yield from f.read_at(off, 16 * KiB)  # all marked critical
        yield from mw.rebuilder.drain()
        evictions_after_drain = mw.space.evictions
        yield from mw.rebuilder.drain()  # second drain: no churn
        yield from f.close()
        return evictions_after_drain

    evictions_after_drain = sim.run_process(body())
    assert mw.space.evictions == evictions_after_drain
    # Cache is full (4 extents of 16KB).
    assert mw.space.free_bytes < 16 * KiB


def test_low_priority_rebuild_defers_to_foreground(s4d_cluster):
    """Rebuilder I/O must not delay a concurrent app request much."""
    mw = s4d_cluster.middleware
    sim = s4d_cluster.sim

    def body():
        f = yield from MPIFile.open(mw, 0, "/data", 64 * MiB)
        # Queue a lot of dirty data.
        for i in range(16):
            yield from f.write_at(i * 3 * MiB, 16 * KiB)
        # Foreground solo latency (cache hit).
        r1 = yield from f.read_at(0, 16 * KiB)
        # Start a flush storm, then issue a foreground request.
        flush = sim.spawn(mw.rebuilder.flush_pass(1 << 30))
        yield sim.timeout(1e-3)
        r2 = yield from f.read_at(3 * MiB, 16 * KiB)
        yield flush
        yield from f.close()
        return r1.elapsed, r2.elapsed

    solo, contended = sim.run_process(body())
    # Low priority keeps the slowdown bounded (one in-service request
    # of head-of-line blocking at worst, not the whole flush queue).
    assert contended < solo + 0.1


def test_drain_converges_and_reports_cycles(s4d_cluster):
    mw = s4d_cluster.middleware
    sim = s4d_cluster.sim

    def body():
        f, _ = yield from open_and_write(mw, [0, 16 * MiB])()
        yield from mw.rebuilder.drain()
        yield from f.close()

    sim.run_process(body())
    assert mw.rebuilder.cycles >= 1


def test_stop_is_idempotent(s4d_cluster):
    mw = s4d_cluster.middleware
    sim = s4d_cluster.sim

    def body():
        f = yield from MPIFile.open(mw, 0, "/data", MiB)
        mw.rebuilder.stop()
        mw.rebuilder.stop()
        mw.rebuilder.start()
        yield from f.close()

    sim.run_process(body())
    assert not mw.rebuilder.running


@pytest.mark.parametrize("priority", [PRIORITY_LOW, PRIORITY_NORMAL])
def test_movements_acquire_at_the_rebuilder_priority(s4d_cluster, priority):
    """Flushes and fetches run at ``Rebuilder.priority`` (the rebuilder
    ablation's "normal" arm sets it), not at a hard-coded low."""
    mw = s4d_cluster.middleware
    sim = s4d_cluster.sim
    mw.rebuilder.priority = priority
    seen = []
    link = mw.direct.fabric.endpoint("mover")
    for resource in (link.tx, link.rx):
        def spy(prio=PRIORITY_NORMAL, _acquire=resource.acquire):
            seen.append(prio)
            return _acquire(prio)

        resource.acquire = spy

    def body():
        f, _ = yield from open_and_write(mw, [0, 8 * MiB, 24 * MiB])()
        for i in range(4):  # critical read misses: lazy fetches
            yield from f.read_at(40 * MiB + i * 4 * MiB, 16 * KiB)
        yield from mw.rebuilder.drain()
        yield from f.close()

    sim.run_process(body())
    assert mw.metrics.flushes > 0 and mw.metrics.fetches > 0
    assert seen and set(seen) == {priority}
