"""Acceptance: streaming telemetry is faithful and perturbation-free.

- golden digests (sim clock, bandwidths) are bit-identical with
  telemetry on and off;
- the final sampled window agrees with the end-of-run registry
  snapshot (hit ratio exactly, cache counters event-for-event);
- consecutive windows partition the run: each series' window counts
  sum to its final count;
- the time series contains hit-ratio and per-component P99 rows.
"""

import json

import pytest

from repro.cluster import ClusterSpec, run_workload
from repro.obs.metrics import registry_for_cluster
from repro.obs.streaming import StreamTelemetry
from repro.units import KiB, MiB
from repro.workloads import IORWorkload


def _spec_and_workload():
    spec = ClusterSpec(num_dservers=4, num_cservers=2, num_nodes=4, seed=42)
    workload = IORWorkload(4, 16 * KiB, 16 * MiB, pattern="random",
                           seed=42, requests_per_rank=16)
    return spec, workload


def _digests(result):
    sim = result.cluster.sim
    return (
        sim.now.hex(),
        result.write_bandwidth.hex(),
        result.read_bandwidth.hex(),
    )


@pytest.fixture(scope="module")
def telemetered_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("series")
    series_path = tmp / "series.jsonl"
    metrics_path = tmp / "metrics.json"
    spec, workload = _spec_and_workload()
    session = StreamTelemetry(
        series_path=str(series_path),
        metrics_path=str(metrics_path),
        interval=0.5,
    )
    with session.activate():
        result = run_workload(spec, workload, s4d=True)
    session.close()
    with open(series_path) as fh:
        rows = [json.loads(line) for line in fh if line.strip()]
    return result, rows, metrics_path


def test_digests_identical_with_and_without_telemetry(telemetered_run):
    result_on, _, _ = telemetered_run
    spec, workload = _spec_and_workload()
    result_off = run_workload(spec, workload, s4d=True)
    assert _digests(result_on) == _digests(result_off)


def test_series_rows_schema(telemetered_run):
    _, rows, _ = telemetered_run
    assert rows
    for row in rows:
        assert {"t", "run", "phase", "series", "kind"} <= set(row)
    kinds = {row["kind"] for row in rows}
    assert kinds == {"counter", "tally", "gauge", "latency"}


def test_hit_ratio_and_p99_rows_present(telemetered_run):
    _, rows, _ = telemetered_run
    names = {row["series"] for row in rows}
    assert "cache.read_hit_ratio" in names
    latencies = {row["series"] for row in rows
                 if row["kind"] == "latency"}
    # Per-component latency: middleware requests, PFS rounds, servers.
    assert "mw.request_latency" in latencies
    assert "pfs.cpfs.round_latency" in latencies
    assert "pfs.opfs.round_latency" in latencies
    assert any(name.startswith("server.") for name in latencies)
    for row in rows:
        if row["kind"] == "latency":
            assert "p99" in row and "p50" in row and "p999" in row


def test_final_window_agrees_with_registry_snapshot(telemetered_run):
    result, rows, _ = telemetered_run
    snapshot = registry_for_cluster(result.cluster).snapshot()
    metrics = snapshot["cache"]["metrics"]

    def final(series):
        return [row for row in rows if row["series"] == series][-1]

    # The gauge reads the same counters the registry snapshots, at the
    # same (end-of-run) sim time: exact equality, not approximation.
    assert final("cache.read_hit_ratio")["value"] == (
        metrics["read_hit_ratio"]
    )
    assert final("cache.read_hits")["count"] == metrics["read_hits"]
    assert final("cache.read_misses")["count"] == metrics["read_misses"]
    assert final("cache.admissions")["count"] == metrics["write_admitted"]
    assert final("cache.bounces")["count"] == metrics["write_bounced"]


def test_windows_partition_the_run(telemetered_run):
    _, rows, _ = telemetered_run
    windows: dict[str, int] = {}
    final: dict[str, int] = {}
    for row in rows:
        if row["kind"] in ("counter", "tally", "latency"):
            name = row["series"]
            windows[name] = windows.get(name, 0) + row["window_count"]
            final[name] = row["count"]
    assert len(final) == 34
    assert windows == final


def test_metrics_snapshot_file_written(telemetered_run):
    _, _, metrics_path = telemetered_run
    with open(metrics_path) as fh:
        document = json.load(fh)
    assert document["cache"]["metrics"]["read_hits"] >= 0
    assert "pfs" in document or "network" in document
