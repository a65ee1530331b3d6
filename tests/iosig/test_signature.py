"""Tests for IOSIG signature extraction and trace reports."""

import pytest

from repro.iosig import (
    TraceRecord,
    analyse_trace,
    extract_rank_signature,
    trace_records,
)
from repro.units import KiB


def rec(time, offset, size=16 * KiB, rank=0, op="read", c=0):
    return TraceRecord(
        time=time, rank=rank, op=op, path="/f", offset=offset, size=size,
        dserver_bytes=size - c, cserver_bytes=c,
    )


def test_sequential_fixed_size_signature():
    records = [rec(t, t * 16 * KiB) for t in range(10)]
    sig = extract_rank_signature(0, records)
    assert sig.spatial == "sequential"
    assert sig.size_pattern == f"fixed({16 * KiB})"
    assert sig.read_fraction == 1.0
    assert sig.reuse_fraction == 0.0
    assert sig.bytes_moved == 10 * 16 * KiB


def test_mixed_sizes_and_ops():
    records = [
        rec(0, 0, size=4 * KiB, op="write"),
        rec(1, 4 * KiB, size=8 * KiB, op="read"),
        rec(2, 12 * KiB, size=4 * KiB, op="read"),
    ]
    sig = extract_rank_signature(0, records)
    assert sig.size_pattern == "mixed"
    assert sig.dominant_size == 4 * KiB
    assert sig.read_fraction == pytest.approx(2 / 3)


def test_reuse_detected():
    records = [rec(0, 0), rec(1, 16 * KiB), rec(2, 0), rec(3, 16 * KiB)]
    sig = extract_rank_signature(0, records)
    assert sig.reuse_fraction == 0.5


def test_out_of_order_records_are_time_sorted():
    records = [rec(2, 32 * KiB), rec(0, 0), rec(1, 16 * KiB)]
    sig = extract_rank_signature(0, records)
    assert sig.spatial == "sequential"


def test_analyse_trace_builds_report():
    records = []
    # Rank 0 sequential, rank 1 random, some to CServers.
    for t in range(8):
        records.append(rec(2 * t, t * 16 * KiB, rank=0))
    for t, off in enumerate([50, 800, 90, 4000, 7, 900, 13, 555]):
        records.append(rec(2 * t + 1, off * KiB, rank=1, c=16 * KiB))
    report = analyse_trace(records)
    assert len(report.ranks) == 2
    assert report.spatial_mix() == {"sequential": 1, "random": 1}
    assert report.cserver_pct == 50.0
    assert 0.4 < report.randomness < 0.6
    text = report.to_text()
    assert "rank 0" in text and "rank 1" in text
    assert "spatial mix" in text


def test_report_from_real_run():
    from repro.cluster import ClusterSpec, run_workload
    from repro.workloads import SyntheticMixWorkload

    spec = ClusterSpec(num_dservers=2, num_cservers=2, num_nodes=4, seed=37)
    workload = SyntheticMixWorkload(
        4, "16MB", random_fraction=0.5,
        sequential_request="512KB", random_request="16KB", seed=2,
    )
    result = run_workload(spec, workload, s4d=True, phases=("write",))
    report = analyse_trace(trace_records(result))
    mix = report.spatial_mix()
    assert mix.get("random", 0) == 2
    assert mix.get("sequential", 0) == 2
