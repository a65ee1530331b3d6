"""Unit tests for the server OS cache model (readahead/write-behind)."""

import pytest

from repro.devices import HDD, HDDSpec
from repro.errors import ConfigError
from repro.pfs import FileServer
from repro.pfs.oscache import OSCacheSpec
from repro.sim import Simulator
from repro.units import GiB, KiB, MiB


def make_server(sim, **cache_overrides):
    spec = OSCacheSpec(**cache_overrides) if cache_overrides else None
    return FileServer(
        sim,
        "srv",
        HDD(HDDSpec(capacity_bytes=GiB, rotation_mode="expected")),
        software_overhead=0.0,
        os_cache_spec=spec,
    )


def serve_all(sim, server, requests):
    """Run requests sequentially; returns per-request foreground times."""

    def body():
        times = []
        for op, offset, size in requests:
            elapsed = yield from server.serve(op, offset, size)
            times.append(elapsed)
        return times

    return sim.run_process(body())


# -- reads -----------------------------------------------------------------

def test_sequential_reads_hit_after_rampup():
    sim = Simulator(seed=1)
    server = make_server(sim)
    requests = [("read", i * 16 * KiB, 16 * KiB) for i in range(32)]
    times = serve_all(sim, server, requests)
    oc = server.os_cache
    assert oc.read_hits > 16  # most requests hit the window
    assert oc.read_refills < 8  # a handful of ramping refills
    # Hits are orders of magnitude cheaper than device reads.
    assert min(times) < 1e-4
    assert max(times) > 1e-3


def test_random_reads_never_hit():
    sim = Simulator(seed=2)
    server = make_server(sim)
    rng = sim.rng.stream("t")
    requests = [
        ("read", rng.randrange(0, 2**14) * 32 * KiB, 16 * KiB)
        for _ in range(50)
    ]
    times = serve_all(sim, server, requests)
    assert server.os_cache.read_hits == 0
    # Every random read pays positioning (~ms).
    assert min(times) > 1e-3


def test_strided_reads_do_not_count_as_sequential():
    """Linux ondemand semantics: jumps past the window reset it."""
    sim = Simulator(seed=3)
    server = make_server(sim)
    stride = 24 * KiB  # 8KB read + 16KB hole > window end
    requests = [("read", i * stride, 8 * KiB) for i in range(40)]
    serve_all(sim, server, requests)
    oc = server.os_cache
    assert oc.read_hits < 10
    assert oc.read_refills < 10  # mostly cold resets, not stream refills


def test_in_window_forward_jump_hits():
    """Pages inside a readahead window hit even if some were skipped."""
    sim = Simulator(seed=4)
    server = make_server(sim)
    # Ramp a stream up, then jump forward within the buffered window.
    requests = [("read", i * 16 * KiB, 16 * KiB) for i in range(8)]
    serve_all(sim, server, requests)
    oc = server.os_cache
    hits_before = oc.read_hits
    window_start = oc._streams[-1].window_start
    buffered = oc._streams[-1].buffered_until
    probe = window_start + (buffered - window_start) // 2

    def body():
        yield from server.serve("read", probe, 4 * KiB)

    sim.run_process(body())
    assert oc.read_hits == hits_before + 1


def test_large_reads_bypass_windows():
    sim = Simulator(seed=5)
    server = make_server(sim)
    serve_all(sim, server, [("read", 0, 4 * MiB)])
    oc = server.os_cache
    assert oc.read_hits == 0
    assert len(oc._streams) == 0


def test_prefetch_extends_stream_asynchronously():
    sim = Simulator(seed=6)
    server = make_server(sim)
    requests = [("read", i * 16 * KiB, 16 * KiB) for i in range(64)]
    serve_all(sim, server, requests)
    assert server.os_cache.prefetches > 0


# -- writes ----------------------------------------------------------------

def test_writes_absorb_quickly_until_budget():
    sim = Simulator(seed=7)
    server = make_server(sim, dirty_high=256 * KiB, dirty_low=128 * KiB)
    requests = [("write", i * 16 * KiB, 16 * KiB) for i in range(8)]
    times = serve_all(sim, server, requests)
    # Under the budget: absorbed at software speed.
    assert all(t < 1e-3 for t in times)
    assert server.os_cache.writes_absorbed == 8


def test_write_backpressure_engages_at_high_watermark():
    sim = Simulator(seed=8)
    server = make_server(sim, dirty_high=128 * KiB, dirty_low=64 * KiB)
    rng = sim.rng.stream("t")
    requests = [
        ("write", rng.randrange(0, 2**14) * 32 * KiB, 16 * KiB)
        for _ in range(40)
    ]
    times = serve_all(sim, server, requests)
    assert server.os_cache.writes_throttled > 0
    # Sustained random writes become device-bound (milliseconds).
    assert sum(times) > 40 * 1e-3


def test_drain_coalesces_adjacent_writes():
    sim = Simulator(seed=9)
    server = make_server(sim)

    def body():
        for i in range(16):
            yield from server.serve("write", i * 16 * KiB, 16 * KiB)
        yield from server.os_cache.flush()

    sim.run_process(body())
    oc = server.os_cache
    assert oc.dirty_bytes == 0
    assert oc.drained_bytes == 16 * 16 * KiB
    # 256KB of contiguous dirty data drains in few chunks, not 16.
    assert server.device.total_requests <= 4


def test_read_of_dirty_data_hits_page_cache():
    sim = Simulator(seed=10)
    server = make_server(sim)

    def body():
        # Two scattered dirty runs: the drainer picks the one nearest
        # the head (100MiB) first, so the 200MiB run is still dirty
        # when the read arrives and must be served from memory.
        yield from server.serve("write", 100 * MiB, 16 * KiB)
        yield from server.serve("write", 200 * MiB, 16 * KiB)
        elapsed = yield from server.serve("read", 200 * MiB, 16 * KiB)
        return elapsed

    elapsed = sim.run_process(body())
    assert elapsed < 1e-4
    assert server.os_cache.read_hits == 1


def test_flush_waits_for_clean():
    sim = Simulator(seed=11)
    server = make_server(sim)

    def body():
        rng = sim.rng.stream("t")
        for _ in range(10):
            yield from server.serve(
                "write", rng.randrange(0, 2**13) * 64 * KiB, 16 * KiB
            )
        yield from server.os_cache.flush()

    sim.run_process(body())
    assert server.os_cache.dirty_bytes == 0


def test_spec_validation():
    with pytest.raises(ConfigError):
        OSCacheSpec(dirty_low=100, dirty_high=50)
    with pytest.raises(ConfigError):
        OSCacheSpec(readahead_max=-1)
    with pytest.raises(ConfigError):
        OSCacheSpec(drain_chunk=0)


def test_ssd_servers_have_no_os_cache_by_default():
    from repro.devices import SSD

    sim = Simulator(seed=12)
    server = FileServer(sim, "css", SSD())
    assert server.os_cache is None
    hdd_server = make_server(sim)
    assert hdd_server.os_cache is not None


def test_throttled_burst_is_the_same_traced_and_untraced():
    """A write burst past the dirty budget takes ``serve``'s absorb and
    throttle path; tracing it records the waits and changes nothing."""
    from repro.obs import Tracer

    def burst(traced):
        sim = Simulator(seed=8)
        server = make_server(sim, dirty_high=128 * KiB, dirty_low=64 * KiB)
        tracer = Tracer(sim) if traced else None
        rng = sim.rng.stream("t")
        offsets = [rng.randrange(0, 2**14) * 32 * KiB for _ in range(24)]
        done = {}

        def writer(index, offset):
            ctx = None
            if tracer is not None:
                ctx = tracer.request(index, "write", "/f", offset, 16 * KiB)
            try:
                yield from server.serve("write", offset, 16 * KiB, ctx=ctx)
            finally:
                if ctx is not None:
                    ctx.finish()
            done[index] = sim.now

        for index, offset in enumerate(offsets):
            sim.spawn(writer(index, offset))
        sim.run()
        oc = server.os_cache
        counts = (oc.writes_absorbed, oc.writes_throttled, oc.dirty_bytes)
        return counts, [done[i] for i in range(len(offsets))], tracer

    plain_counts, plain_done, _ = burst(traced=False)
    traced_counts, traced_done, tracer = burst(traced=True)
    assert plain_counts[1] > 0  # the burst did throttle
    assert traced_counts == plain_counts
    assert traced_done == plain_done
    waits = [s for s in tracer.spans if s.name == "writeback_throttle"]
    assert waits
    assert all(s.end is not None and s.end > s.start for s in waits)
    assert all(s.attrs["size"] == 16 * KiB for s in waits)
