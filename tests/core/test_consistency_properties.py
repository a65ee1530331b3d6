"""Property-based end-to-end consistency of the S4D middleware.

The fundamental correctness contract: *a logical read through the
middleware always returns exactly the bytes of the latest logical
writes*, no matter how requests were routed, flushed, fetched, evicted
or how the DMT recovered from a crash.  Write stamps make this
checkable byte-for-byte against a trivial dict model.
"""

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterSpec, build_cluster
from repro.units import KiB

BLOCK = 16 * KiB
SPAN_BLOCKS = 64  # operate on a 1MB file region
FILE_HINT = SPAN_BLOCKS * BLOCK


def small_cluster(capacity_blocks: int):
    spec = ClusterSpec(
        num_dservers=2,
        num_cservers=2,
        num_nodes=2,
        seed=5,
        rebuild_interval=0.02,
    )
    return build_cluster(spec, s4d=True, cache_capacity=capacity_blocks * BLOCK)


operations = st.lists(
    st.one_of(
        st.tuples(
            st.just("write"),
            st.integers(0, SPAN_BLOCKS - 2),
            st.integers(1, 3),  # blocks
            st.integers(0, 1),  # rank
        ),
        st.tuples(
            st.just("read"),
            st.integers(0, SPAN_BLOCKS - 2),
            st.integers(1, 3),
            st.integers(0, 1),
        ),
        st.tuples(st.just("drain"), st.just(0), st.just(0), st.just(0)),
        st.tuples(st.just("recover"), st.just(0), st.just(0), st.just(0)),
    ),
    min_size=4,
    max_size=25,
)


@given(ops=operations, capacity_blocks=st.sampled_from([0, 2, 8, 64]))
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@example(
    ops=[('write', 0, 1, 0),
     ('write', 24, 1, 0),
     ('write', 24, 2, 0),
     ('drain', 0, 0, 0),
     ('write', 5, 3, 0),
     ('read', 7, 3, 0),
     ('drain', 0, 0, 0),
     ('read', 0, 2, 0),
     ('drain', 0, 0, 0),
     ('recover', 0, 0, 0),
     ('write', 0, 1, 0),
     ('write', 0, 1, 0),
     ('drain', 0, 0, 0),
     ('write', 0, 1, 0),
     ('read', 4, 1, 0),
     ('drain', 0, 0, 0),
     ('write', 0, 3, 0),
     ('recover', 0, 0, 0)],
    capacity_blocks=64,
).via('discovered failure')  # zombie rebuilder movement across recover()
@example(
    ops=[('write', 0, 1, 0),
     ('write', 2, 1, 0),
     ('write', 11, 2, 0),
     ('drain', 0, 0, 0),
     ('write', 5, 3, 0),
     ('read', 7, 3, 0),
     ('drain', 0, 0, 0),
     ('read', 0, 2, 0),
     ('drain', 0, 0, 0),
     ('recover', 0, 0, 0),
     ('write', 1, 3, 0),
     ('read', 2, 3, 0)],
    capacity_blocks=64,
).via('discovered failure')  # zombie rebuilder movement across recover()
@example(
    ops=[('write', 0, 1, 0),
     ('write', 2, 1, 0),
     ('write', 10, 2, 0),
     ('drain', 0, 0, 0),
     ('write', 4, 2, 0),
     ('read', 7, 3, 0),
     ('drain', 0, 0, 0),
     ('read', 0, 2, 0),
     ('drain', 0, 0, 0),
     ('recover', 0, 0, 0),
     ('write', 1, 3, 0)],
    capacity_blocks=8,
).via('discovered failure')  # zombie rebuilder movement across recover()
@example(
    ops=[('write', 34, 3, 1),
     ('recover', 0, 0, 0),
     ('drain', 0, 0, 0),
     ('write', 4, 1, 1),
     ('read', 4, 2, 1),
     ('write', 0, 3, 1),
     ('read', 40, 2, 0),
     ('read', 1, 3, 0),
     ('drain', 0, 0, 0)],
    capacity_blocks=8,
).via('discovered failure')  # extent evicted under a second in-flight flush
def test_read_always_sees_latest_write(ops, capacity_blocks):
    cluster = small_cluster(capacity_blocks)
    mw = cluster.middleware
    sim = cluster.sim
    model: dict[int, int] = {}  # block index -> stamp

    def body():
        from repro.mpiio import MPIFile

        files = {}
        for rank in (0, 1):
            f = yield from MPIFile.open(mw, rank, "/data", FILE_HINT)
            files[rank] = f
        for op, block, blocks, rank in ops:
            offset = block * BLOCK
            size = min(blocks, SPAN_BLOCKS - block) * BLOCK
            if op == "write":
                res = yield from files[rank].write_at(offset, size)
                for b in range(block, block + size // BLOCK):
                    model[b] = res.stamp
            elif op == "read":
                res = yield from files[rank].read_at(offset, size)
                for seg_start, seg_end, stamp in res.segments:
                    for b in range(seg_start // BLOCK, seg_end // BLOCK):
                        assert stamp == model.get(b), (
                            f"block {b}: read stamp {stamp} != model "
                            f"{model.get(b)} after {op} at {offset}"
                        )
            elif op == "drain":
                yield from mw.rebuilder.drain()
            else:
                # Simulated power failure + middleware restart: the
                # persistent DMT survives, volatile state is rebuilt.
                mw.recover()
        # Final full-file verification.
        res = yield from files[0].read_at(0, FILE_HINT)
        for seg_start, seg_end, stamp in res.segments:
            for b in range(seg_start // BLOCK, seg_end // BLOCK):
                assert stamp == model.get(b)
        for f in files.values():
            yield from f.close()

    sim.run_process(body())
    # Space accounting never leaks: every mapped byte is accounted.
    assert mw.space.used == mw.dmt.mapped_bytes
    assert 0 <= mw.space.used <= max(capacity_blocks * BLOCK, 0)


@given(
    ops=operations,
)
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_stock_and_s4d_agree_on_content(ops):
    """Differential test: both systems must return identical stamps...

    ...modulo stamp identity (stamps are globally unique), so we
    compare the *pattern*: which blocks are written and by which
    logical operation index.
    """
    outcomes = []
    for s4d in (False, True):
        spec = ClusterSpec(
            num_dservers=2, num_cservers=2, num_nodes=2, seed=9,
            rebuild_interval=0.02,
        )
        cluster = build_cluster(spec, s4d=s4d, cache_capacity=8 * BLOCK)
        layer = cluster.layer
        sim = cluster.sim
        stamp_to_opindex = {}
        reads = []

        def body(layer=layer, stamp_to_opindex=stamp_to_opindex,
                 reads=reads):
            from repro.mpiio import MPIFile

            f = yield from MPIFile.open(layer, 0, "/data", FILE_HINT)
            for index, (op, block, blocks, _rank) in enumerate(ops):
                offset = block * BLOCK
                size = min(blocks, SPAN_BLOCKS - block) * BLOCK
                if op == "write":
                    res = yield from f.write_at(offset, size)
                    stamp_to_opindex[res.stamp] = index
                elif op == "read":
                    res = yield from f.read_at(offset, size)
                    reads.append(
                        [
                            (s, e, stamp_to_opindex.get(v))
                            for s, e, v in res.segments
                        ]
                    )
            yield from f.close()

        sim.run_process(body())
        outcomes.append(reads)
    assert outcomes[0] == outcomes[1]
