"""Tests for the runner's phase modes (separated vs interleaved)."""

import pytest

from repro.errors import WorkloadError

from repro.cluster import ClusterSpec, run_workload
from repro.units import KiB, MiB
from repro.workloads import IORWorkload


def small_spec():
    return ClusterSpec(num_dservers=4, num_cservers=2, num_nodes=4, seed=17)


@pytest.fixture(scope="module")
def interleaved_result():
    w = IORWorkload(4, "16KB", "64MB", pattern="random", seed=4,
                    requests_per_rank=32)
    return run_workload(small_spec(), w, s4d=True, phases=("interleaved",))


def test_interleaved_produces_all_phases(interleaved_result):
    assert set(interleaved_result.phases) == {"write", "read1", "read2"}
    for phase in interleaved_result.phases.values():
        assert phase.bytes_moved > 0
        assert phase.duration > 0


def test_interleaved_counts_match(interleaved_result):
    expected = 4 * 32 * 16 * KiB
    assert interleaved_result.phases["write"].bytes_moved == expected
    assert interleaved_result.phases["read1"].bytes_moved == expected
    assert interleaved_result.phases["read2"].bytes_moved == expected


def test_second_read_at_least_as_fast(interleaved_result):
    first = interleaved_result.phases["read1"].bandwidth
    second = interleaved_result.phases["read2"].bandwidth
    assert second >= first * 0.9


def test_requests_per_rank_limits_volume():
    w = IORWorkload(4, "16KB", "64MB", pattern="random", seed=4,
                    requests_per_rank=8)
    assert w.data_bytes() == 4 * 8 * 16 * KiB
    # Offsets still span the whole region.
    spans = [
        max(o for o, _ in w.segments_for_rank(r)) -
        min(o for o, _ in w.segments_for_rank(r))
        for r in range(4)
    ]
    assert max(spans) > 4 * MiB


def test_requests_per_rank_validation():
    with pytest.raises(WorkloadError):
        IORWorkload(4, "16KB", "1MB", requests_per_rank=0)
    with pytest.raises(WorkloadError):
        IORWorkload(4, "16KB", "1MB", requests_per_rank=10**6)


def test_reused_cluster_keeps_state():
    from repro.cluster import build_cluster

    spec = small_spec()
    cluster = build_cluster(spec, s4d=True, cache_capacity=MiB)
    w = IORWorkload(4, "16KB", "64MB", pattern="random", seed=4,
                    requests_per_rank=16)
    first = run_workload(spec, w, cluster=cluster, phases=("write",))
    extents_after_first = len(cluster.middleware.dmt)
    second = run_workload(spec, w, cluster=cluster, phases=("write",))
    assert second.cluster is cluster
    assert len(cluster.middleware.dmt) >= extents_after_first  # state kept


def test_rewrite_takes_write_hits_and_reads_the_latest_stamps():
    """A second write pass over a cached file takes write hits.

    Algorithm 1's write branch on an extent the DMT already maps
    re-dirties the extent, and no figure campaign reaches it, so this
    campaign pins it: an IOR write phase, then write and read phases
    over the same file on the same cluster.  Every read must return
    the second pass's stamps, and the clock, the phase bandwidths and
    the cache counters are pinned bit for bit (a change to any of them
    is a model change).
    """
    spec = ClusterSpec(num_dservers=4, num_cservers=2, num_nodes=4, seed=42)

    def workload():
        return IORWorkload(4, 16 * KiB, 16 * MiB, pattern="random",
                           seed=42, requests_per_rank=32)

    first = run_workload(spec, workload(), s4d=True, phases=("write",))
    cluster = first.cluster
    second = run_workload(spec, workload(), s4d=True, read_runs=1,
                          cluster=cluster)
    metrics = cluster.metrics
    assert metrics.write_hits > 0

    def results(phase):
        return [res for ranks in phase.per_instance for rank in ranks
                for res in rank.results]

    stamps = {res.offset: res.stamp
              for res in results(second.phases["write"])}
    reads = results(second.phases["read1"])
    assert len(reads) == len(stamps) == 4 * 32
    for res in reads:
        assert {stamp for _, _, stamp in res.segments} == {
            stamps[res.offset]
        }
        assert sum(end - start for start, end, _ in res.segments) == (
            res.size
        )

    assert cluster.sim.now.hex() == "0x1.1ac5ae41c84eep+0"
    bandwidths = [first.phases["write"], second.phases["write"],
                  second.phases["read1"]]
    assert [phase.bandwidth.hex() for phase in bandwidths] == [
        "0x1.16ebc78e37f22p+27", "0x1.16ebc78e38109p+27",
        "0x1.f66087d8dbe86p+22",
    ]
    assert metrics.as_dict() == {
        "bytes_to_dservers": 5062656, "bytes_to_cservers": 1228800,
        "requests_to_dservers": 309, "requests_to_cservers": 75,
        "requests_split": 0, "read_hits": 25, "read_misses": 103,
        "write_hits": 25, "write_admitted": 25, "write_bounced": 206,
        "lazy_fetch_marks": 103, "flushes": 50, "flushed_bytes": 819200,
        "fetches": 0, "fetched_bytes": 0, "benefit_evaluations": 384,
        "critical_admissions": 128, "read_hit_ratio": 0.1953125,
        "write_hit_ratio": 0.09765625,
        "admission_ratio": 0.10822510822510822,
    }
