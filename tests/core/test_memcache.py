"""Tests for the client-side memory cache extension (§II.B future work)."""

import pytest

from repro.core import MemoryCacheLayer
from repro.errors import ConfigError
from repro.mpiio import MPIFile
from repro.units import KiB, MiB


def wrap(cluster, **kwargs):
    defaults = dict(capacity="1MB", block_size="64KB")
    defaults.update(kwargs)
    return MemoryCacheLayer(cluster.sim, cluster.layer, **defaults)


def test_repeated_reads_hit_ram(s4d_cluster):
    layer = wrap(s4d_cluster)
    sim = s4d_cluster.sim

    def body():
        f = yield from MPIFile.open(layer, 0, "/data", 64 * MiB)
        yield from f.write_at(0, 64 * KiB)
        first = yield from f.read_at(0, 64 * KiB)
        second = yield from f.read_at(0, 64 * KiB)
        yield from f.close()
        return first, second

    first, second = sim.run_process(body())
    assert layer.hits >= 1
    assert second.elapsed < first.elapsed / 5  # RAM hit is ~free
    assert second.segments == first.segments   # and consistent


def test_write_invalidates_cached_blocks(s4d_cluster):
    layer = wrap(s4d_cluster)
    sim = s4d_cluster.sim

    def body():
        f = yield from MPIFile.open(layer, 0, "/data", 64 * MiB)
        w1 = yield from f.write_at(0, 64 * KiB)
        yield from f.read_at(0, 64 * KiB)      # populate RAM
        w2 = yield from f.write_at(0, 64 * KiB)  # must invalidate
        res = yield from f.read_at(0, 64 * KiB)
        yield from f.close()
        return w1, w2, res

    w1, w2, res = sim.run_process(body())
    assert res.segments == [(0, 64 * KiB, w2.stamp)]


def test_partial_block_reads_are_consistent(s4d_cluster):
    layer = wrap(s4d_cluster)
    sim = s4d_cluster.sim

    def body():
        f = yield from MPIFile.open(layer, 0, "/data", 64 * MiB)
        w = yield from f.write_at(16 * KiB, 96 * KiB)  # crosses blocks
        yield from f.read_at(0, 128 * KiB)             # fill two blocks
        res = yield from f.read_at(32 * KiB, 32 * KiB)  # inside block 0
        yield from f.close()
        return w, res

    w, res = sim.run_process(body())
    assert res.segments == [(32 * KiB, 64 * KiB, w.stamp)]
    assert layer.hits >= 1


def test_lru_eviction_bounded(s4d_cluster):
    layer = wrap(s4d_cluster, capacity="256KB", block_size="64KB")  # 4 blocks
    sim = s4d_cluster.sim

    def body():
        f = yield from MPIFile.open(layer, 0, "/data", 64 * MiB)
        for i in range(8):
            yield from f.read_at(i * 64 * KiB, 64 * KiB)
        yield from f.close()

    sim.run_process(body())
    node_cache = layer._nodes[layer.under.node_for(0)]
    assert len(node_cache.blocks) == 4


def test_per_node_caches_are_independent(s4d_cluster):
    layer = wrap(s4d_cluster)
    sim = s4d_cluster.sim

    def body():
        f0 = yield from MPIFile.open(layer, 0, "/data", 64 * MiB)
        f1 = yield from MPIFile.open(layer, 1, "/data", 64 * MiB)
        yield from f0.write_at(0, 64 * KiB)
        yield from f0.read_at(0, 64 * KiB)   # node0 caches
        yield from f1.read_at(0, 64 * KiB)   # node1 misses
        yield from f0.close()
        yield from f1.close()

    sim.run_process(body())
    assert len(layer._nodes) == 2


def test_composes_with_s4d_statistics(s4d_cluster):
    """Both tiers absorb work: RAM re-reads, SSD random smalls."""
    layer = wrap(s4d_cluster)
    sim = s4d_cluster.sim
    mw = s4d_cluster.middleware

    def body():
        f = yield from MPIFile.open(layer, 0, "/data", 64 * MiB)
        for off in (0, 16 * MiB, 32 * MiB):
            yield from f.write_at(off, 16 * KiB)
        for _ in range(3):
            yield from f.read_at(0, 16 * KiB)
        yield from f.close()

    sim.run_process(body())
    assert layer.hits >= 2                  # RAM tier absorbed re-reads
    assert mw.metrics.write_admitted >= 2   # SSD tier took random writes


def test_bad_config_rejected(s4d_cluster):
    with pytest.raises(ConfigError):
        wrap(s4d_cluster, capacity="1KB", block_size="64KB")
