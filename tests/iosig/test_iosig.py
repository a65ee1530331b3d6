"""Tests for IOSIG-style tracing and analysis."""

from repro.iosig import (
    TraceRecord,
    detect_signature,
    randomness_ratio,
    request_distribution,
)
from repro.iosig.analysis import average_request_size, byte_distribution


def rec(time, offset, size=100, rank=0, d=None, c=0, op="read"):
    d = size if d is None else d
    return TraceRecord(
        time=time, rank=rank, op=op, path="/f", offset=offset,
        size=size, dserver_bytes=d, cserver_bytes=c,
    )


def test_target_majority():
    assert rec(0, 0, size=100, d=100, c=0).target == "dservers"
    assert rec(0, 0, size=100, d=20, c=80).target == "cservers"


def test_request_distribution():
    records = [rec(0, 0, d=100, c=0), rec(1, 0, d=0, c=100),
               rec(2, 0, d=0, c=100), rec(3, 0, d=0, c=100)]
    d_pct, c_pct = request_distribution(records)
    assert (d_pct, c_pct) == (25.0, 75.0)
    assert request_distribution([]) == (0.0, 0.0)


def test_byte_distribution():
    records = [rec(0, 0, size=300, d=300, c=0), rec(1, 0, size=100, d=0, c=100)]
    d_pct, c_pct = byte_distribution(records)
    assert (d_pct, c_pct) == (75.0, 25.0)


def test_randomness_ratio_sequential_stream():
    records = [rec(t, t * 100, size=100) for t in range(10)]
    assert randomness_ratio(records) == 0.0


def test_randomness_ratio_random_stream():
    offsets = [0, 5000, 200, 9000, 40]
    records = [rec(i, off) for i, off in enumerate(offsets)]
    assert randomness_ratio(records) == 1.0


def test_randomness_ratio_per_rank_streams():
    # Two interleaved sequential streams are still sequential per rank.
    records = []
    for i in range(5):
        records.append(rec(2 * i, i * 100, rank=0))
        records.append(rec(2 * i + 1, 50_000 + i * 100, rank=1))
    assert randomness_ratio(records) == 0.0


def test_detect_signature_cases():
    assert detect_signature([(0, 10), (10, 10), (20, 10)]) == "sequential"
    assert detect_signature([(0, 10), (15, 10), (30, 10)]) == "strided(5)"
    assert detect_signature([(0, 10), (500, 10), (90, 10)]) == "random"
    assert detect_signature([(0, 10)]) == "sequential"


def test_average_request_size():
    records = [rec(0, 0, size=100), rec(1, 0, size=300)]
    assert average_request_size(records) == 200.0
    assert average_request_size([]) == 0.0
