"""Property tests: OS-cache accounting under arbitrary request mixes."""

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.devices import HDD, HDDSpec
from repro.pfs import FileServer
from repro.pfs.oscache import OSCache, OSCacheSpec
from repro.sim import Simulator
from repro.units import GiB, KiB

BLOCK = 16 * KiB

requests = st.lists(
    st.tuples(
        st.sampled_from(["read", "write"]),
        st.integers(0, 512),          # block offset
        st.integers(1, 8),            # blocks
    ),
    min_size=1,
    max_size=60,
)


def _runs(cache):
    return list(zip(cache._dirty_starts, cache._dirty_ends))


@given(ops=requests, dirty_high_blocks=st.sampled_from([2, 8, 32]))
@settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_dirty_accounting_never_negative_and_drains(ops, dirty_high_blocks):
    sim = Simulator(seed=3)
    server = FileServer(
        sim,
        "srv",
        HDD(HDDSpec(capacity_bytes=GiB, rotation_mode="expected")),
        software_overhead=0.0,
        os_cache_spec=OSCacheSpec(
            dirty_high=dirty_high_blocks * BLOCK,
            dirty_low=dirty_high_blocks * BLOCK // 2,
        ),
    )
    cache = server.os_cache

    def body():
        for op, block, blocks in ops:
            yield from server.serve(op, block * BLOCK, blocks * BLOCK)
            assert cache.dirty_bytes >= 0
            # Dirty runs are sorted, disjoint and never adjacent.
            runs = _runs(cache)
            for (s1, e1), (s2, e2) in zip(runs, runs[1:]):
                assert s1 <= e1 < s2 <= e2
            # dirty_bytes covers the queued runs plus at most one
            # in-flight drain chunk (popped from the runs, decremented
            # only when its device write lands).
            queued = sum(e - s for s, e in runs)
            assert queued <= cache.dirty_bytes <= queued + cache.spec.drain_chunk
        yield from cache.flush()

    sim.run_process(body())
    assert cache.dirty_bytes == 0
    assert _runs(cache) == []
    writes = sum(blocks * BLOCK for op, _, blocks in ops if op == "write")
    # Everything written was eventually drained (coalescing dedupes
    # overlapping writes, so drained <= written).
    assert cache.drained_bytes <= writes
    if writes:
        assert cache.drained_bytes > 0


@given(ops=requests)
@settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_stream_windows_stay_bounded(ops):
    sim = Simulator(seed=5)
    server = FileServer(
        sim,
        "srv",
        HDD(HDDSpec(capacity_bytes=GiB, rotation_mode="expected")),
        software_overhead=0.0,
    )
    cache = server.os_cache
    spec = cache.spec

    def body():
        for op, block, blocks in ops:
            yield from server.serve(op, block * BLOCK, blocks * BLOCK)
            assert len(cache._streams) <= spec.max_streams
            for stream in cache._streams:
                assert stream.window_start <= stream.buffered_until
                assert stream.window <= spec.readahead_max

    sim.run_process(body())


# -- differential: bisect-indexed runs vs the linear reference -------------

class _ReferenceRuns:
    """The original list-of-``[start, end]`` dirty runs, scanned linearly."""

    def __init__(self):
        self.runs: list[list[int]] = []
        self.dirty_bytes = 0

    def add(self, start, end):
        runs = self.runs
        lo = 0
        while lo < len(runs) and runs[lo][1] < start:
            lo += 1
        merged_start, merged_end = start, end
        overlap = 0
        hi = lo
        while hi < len(runs) and runs[hi][0] <= end:
            merged_start = min(merged_start, runs[hi][0])
            merged_end = max(merged_end, runs[hi][1])
            overlap += min(end, runs[hi][1]) - max(start, runs[hi][0])
            hi += 1
        runs[lo:hi] = [[merged_start, merged_end]]
        self.dirty_bytes += end - start - max(overlap, 0)

    def contains(self, offset, size):
        for start, end in self.runs:
            if start <= offset and offset + size <= end:
                return True
            if start > offset + size:
                break
        return False

    def pick(self, head, drain_chunk):
        """Pop the next drain chunk: nearest start, first index on ties."""
        runs = self.runs
        index = min(range(len(runs)), key=lambda i: abs(runs[i][0] - head))
        run = runs[index]
        start = run[0]
        chunk = min(drain_chunk, run[1] - start)
        if run[1] - run[0] <= chunk:
            del runs[index]
        else:
            run[0] = start + chunk
        return start, chunk


class _Device:
    name = "dev"
    capacity_bytes = 1 << 20
    head_position = 0


def _recording_op(log):
    def device_op(op, offset, size, priority, ctx=None):
        log.append((op, offset, size))
        yield None  # suspend: the chunk is in flight until resumed

    return device_op


differential_ops = st.lists(
    st.one_of(
        st.tuples(st.just("write"), st.integers(0, 200), st.integers(1, 24)),
        st.tuples(st.just("read"), st.integers(0, 220), st.integers(0, 24)),
        st.tuples(st.just("drain"), st.integers(0, 240), st.just(0)),
    ),
    min_size=1,
    max_size=80,
)


@given(ops=differential_ops, drain_chunk=st.integers(1, 16))
# Equal distance both sides of the head: the lower start must win.
@example(ops=[("write", 10, 2), ("write", 30, 2), ("drain", 20, 0),
              ("drain", 20, 0)], drain_chunk=16)
# A drain chunk smaller than the run only trims the run's front.
@example(ops=[("write", 0, 10), ("drain", 0, 0), ("read", 4, 6),
              ("drain", 5, 0), ("drain", 5, 0)], drain_chunk=4)
# Adjacent writes merge into one run.
@example(ops=[("write", 0, 5), ("write", 5, 5), ("read", 0, 10),
              ("write", 11, 2), ("drain", 100, 0)], drain_chunk=16)
@settings(max_examples=300, deadline=None)
def test_dirty_runs_match_linear_reference(ops, drain_chunk):
    log = []
    device = _Device()
    cache = OSCache(None, device, _recording_op(log),
                    OSCacheSpec(drain_chunk=drain_chunk))
    ref = _ReferenceRuns()
    drainer = None
    in_flight = 0
    for op, offset, size in ops:
        if op == "write":
            cache._add_dirty(offset, offset + size)
            ref.add(offset, offset + size)
        elif op == "read":
            assert cache._in_dirty(offset, size) == ref.contains(offset, size)
        else:
            # One drain step: land the in-flight chunk, pick the next.
            device.head_position = offset
            if drainer is None:
                drainer = cache._drain_loop()
            try:
                next(drainer)
            except StopIteration:
                drainer = None
            ref.dirty_bytes -= in_flight
            in_flight = 0
            if ref.runs:
                start, in_flight = ref.pick(offset, drain_chunk)
                assert log[-1] == ("write", start, in_flight)
            else:
                assert drainer is None
        assert _runs(cache) == [tuple(run) for run in ref.runs]
        assert cache.dirty_bytes == ref.dirty_bytes
