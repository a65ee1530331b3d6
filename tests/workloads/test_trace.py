"""Tests for trace parsing, export and replay."""

import io

import pytest

from repro.cluster import ClusterSpec, run_workload
from repro.errors import WorkloadError
from repro.iosig import trace_records
from repro.units import KiB
from repro.workloads import TraceWorkload, export_trace, parse_trace

SAMPLE = """\
# rank op offset size
0 write 0 16KB
1 write 16384 16KB
0 read 0 16KB
1 read 16384 8KB
"""


def test_parse_trace_basic():
    requests = parse_trace(SAMPLE.splitlines())
    assert len(requests) == 4
    assert requests[0].rank == 0
    assert requests[0].op == "write"
    assert requests[0].size == 16 * KiB
    assert requests[3].size == 8 * KiB


def test_parse_trace_errors_have_line_numbers():
    with pytest.raises(WorkloadError, match=":2:"):
        parse_trace(["# ok", "0 write 0"])
    with pytest.raises(WorkloadError, match="read/write"):
        parse_trace(["0 erase 0 16KB"])
    with pytest.raises(WorkloadError, match="no requests"):
        parse_trace(["# only comments"])
    with pytest.raises(WorkloadError):
        parse_trace(["-1 read 0 16KB"])
    with pytest.raises(WorkloadError):
        parse_trace(["0 read 0 0"])


def test_workload_shape_from_trace():
    w = TraceWorkload(SAMPLE.splitlines())
    assert w.processes == 2
    assert w.segments_for_rank(0) == [(0, 16 * KiB), (0, 16 * KiB)]
    assert w.size_hint() == 2 * 16 * KiB


def test_op_filter():
    w = TraceWorkload(SAMPLE.splitlines(), op_filter="write")
    assert all(r.op == "write" for r in w.requests)
    with pytest.raises(WorkloadError):
        TraceWorkload(["0 write 0 4KB"], op_filter="read")
    with pytest.raises(WorkloadError):
        TraceWorkload(SAMPLE.splitlines(), op_filter="erase")


def test_trace_from_file(tmp_path):
    path = tmp_path / "a.trace"
    path.write_text(SAMPLE)
    w = TraceWorkload(str(path))
    assert len(w.requests) == 4


def test_mixed_replay_runs():
    spec = ClusterSpec(num_dservers=2, num_cservers=2, num_nodes=2, seed=31)
    w = TraceWorkload(SAMPLE.splitlines())
    from repro.cluster import build_cluster
    from repro.mpiio import MPIJob

    cluster = build_cluster(spec, s4d=True, cache_capacity=64 * KiB)
    stats = MPIJob(cluster.sim, cluster.layer, w.processes).run(w.make_body())
    assert sum(s.bytes_written for s in stats) == 2 * 16 * KiB
    assert sum(s.bytes_read for s in stats) == 16 * KiB + 8 * KiB


def test_record_then_replay_round_trip():
    """Close the loop: trace a simulated run, export, replay it."""
    from repro.workloads import IORWorkload

    spec = ClusterSpec(num_dservers=2, num_cservers=2, num_nodes=2, seed=33)
    original = IORWorkload(2, "16KB", "1MB", pattern="random", seed=3)
    result = run_workload(spec, original, s4d=False, phases=("write",))

    buffer = io.StringIO()
    records = trace_records(result)
    count = export_trace(records, buffer)
    assert count == len(records)

    replayed = TraceWorkload(buffer.getvalue().splitlines())
    assert replayed.processes == 2
    assert replayed.data_bytes() == original.data_bytes()
    # Same per-rank offsets in the same order.
    for rank in range(2):
        assert replayed.segments_for_rank(rank) == (
            original.segments_for_rank(rank)
        )
