"""Tests for §III.D distributed metadata (sharded DMT locking).

Note on fidelity: decisions themselves are synchronous in the
cooperative simulation, so sharding models the *waiting* contention a
real Berkeley-DB lock would impose, which is what the paper's remark
targets.
"""

import pytest

from repro.cluster import ClusterSpec, build_cluster
from repro.core import S4DCacheMiddleware
from repro.errors import CacheError, ConfigError
from repro.mpiio import MPIJob
from repro.units import GiB, KiB, MiB


def make_cluster(shards, sync_cost=200e-6):
    spec = ClusterSpec(
        num_dservers=4, num_cservers=2, num_nodes=8, seed=3,
        metadata_shards=shards, metadata_sync_cost=sync_cost,
    )
    return build_cluster(spec, s4d=True, cache_capacity=64 * MiB)


def run_contended_job(cluster):
    """8 ranks write small requests in far-apart file regions."""

    def body(ctx):
        f = yield from ctx.open("/data", 8 * GiB)
        base = ctx.rank * GiB
        for i in range(24):
            yield from f.write_at(base + i * 16 * KiB, 16 * KiB)

    stats = MPIJob(cluster.sim, cluster.layer, 8).run(body)
    return MPIJob.makespan(stats)


def test_lock_key_sharding():
    mw = make_cluster(shards=4).middleware
    assert mw._lock_key("/f", 0) != mw._lock_key("/f", 300 * MiB)
    assert mw._lock_key("/f", 0) == mw._lock_key("/f", 10 * MiB)
    single = make_cluster(shards=1).middleware
    assert single._lock_key("/f", 0) == "/f"
    assert single._lock_key("/f", 300 * MiB) == "/f"


def test_sharding_reduces_lock_contention():
    unsharded = make_cluster(shards=1)
    run_contended_job(unsharded)
    sharded = make_cluster(shards=8)
    run_contended_job(sharded)
    assert (
        sharded.middleware.locks.contentions
        < unsharded.middleware.locks.contentions
    )


def test_sharding_preserves_consistency():
    cluster = make_cluster(shards=8)

    def body(ctx):
        f = yield from ctx.open("/data", 8 * GiB)
        base = ctx.rank * GiB
        stamps = {}
        for i in range(8):
            res = yield from f.write_at(base + i * 16 * KiB, 16 * KiB)
            stamps[i] = res.stamp
        for i in range(8):
            res = yield from f.read_at(base + i * 16 * KiB, 16 * KiB)
            assert res.segments[0][2] == stamps[i]

    MPIJob(cluster.sim, cluster.layer, 8).run(body)
    mw = cluster.middleware
    assert mw.space.used == mw.dmt.mapped_bytes


def test_bad_shard_count_rejected():
    # The spec rejects it at construction; the middleware keeps its own
    # guard for callers that build one directly.
    with pytest.raises(ConfigError):
        make_cluster(shards=0)
    mw = make_cluster(shards=1).middleware
    with pytest.raises(CacheError):
        S4DCacheMiddleware(
            mw.sim, mw.direct, mw.cpfs, mw.identifier.cost_model,
            capacity=0, metadata_shards=0,
        )
