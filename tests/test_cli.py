"""Tests for the command-line interface."""

import pytest

from repro.__main__ import main
from repro.errors import ConfigError, WorkloadError


def test_calibrate_prints_parameters(capsys):
    assert main(["calibrate", "--dservers", "4", "--cservers", "2"]) == 0
    out = capsys.readouterr().out
    assert "beta_D" in out and "beta_C" in out
    assert "crossover" in out


def test_compare_runs_small_workload(tmp_path, capsys):
    """Serial, parallel-uncached and parallel store-backed (cold)
    compares all simulate and print the same table."""
    tables = []
    for flags in (
        ["--jobs", "1", "--cache-dir", str(tmp_path / "serial")],
        ["--jobs", "2", "--no-result-cache"],
        ["--jobs", "2", "--cache-dir", str(tmp_path / "parallel")],
    ):
        code = main([
            "compare", "--processes", "2", "--requests-per-rank", "16",
            "--dservers", "2", "--cservers", "2", *flags,
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "sweep cache hit" not in out
        assert "stock MB/s" in out
        assert "S4D routing" in out
        tables.append(out[out.index("phase"):])
    assert tables[1] == tables[0]
    assert tables[2] == tables[0]


def test_replay_trace(tmp_path, capsys):
    trace = tmp_path / "t.trace"
    trace.write_text(
        "0 write 0 16KB\n0 read 0 16KB\n1 write 16KB 16KB\n"
    )
    code = main([
        "replay", str(trace), "--dservers", "2", "--cservers", "2",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "replaying 3 requests" in out


def test_trace_writes_chrome_trace(tmp_path, capsys):
    import json

    out = tmp_path / "trace.json"
    jsonl = tmp_path / "spans.jsonl"
    metrics = tmp_path / "metrics.json"
    code = main([
        "trace", "--processes", "2", "--requests-per-rank", "8",
        "--dservers", "2", "--cservers", "1", "--read-runs", "1",
        "--file-size", "4MB",
        "--out", str(out), "--jsonl", str(jsonl), "--metrics", str(metrics),
    ])
    assert code == 0
    text = capsys.readouterr().out
    assert "chrome trace:" in text
    assert "device_service" in text  # the latency-breakdown table
    assert "tracer overhead" in text

    data = json.loads(out.read_text())
    assert any(e["ph"] == "X" for e in data["traceEvents"])
    assert all(json.loads(line) for line in jsonl.read_text().splitlines())
    assert "cache" in json.loads(metrics.read_text())


def test_trace_rejects_missing_output_dir_before_running(
    tmp_path, monkeypatch
):
    """A bad output path fails at parse time (exit 2), not after the
    whole simulation has run."""

    def must_not_run(*args, **kwargs):
        raise AssertionError("simulated before checking the output path")

    monkeypatch.setattr("repro.cluster.run_workload", must_not_run)
    with pytest.raises(SystemExit) as excinfo:
        main([
            "trace", "--processes", "2", "--requests-per-rank", "8",
            "--dservers", "2", "--cservers", "1", "--file-size", "4MB",
            "--out", str(tmp_path / "missing" / "t.json"),
        ])
    assert excinfo.value.code == 2


@pytest.mark.parametrize("flags, error", [
    (["--requests-per-rank", "4", "--nodes", "0"], ConfigError),
    (["--workload", "hpio", "--requests-per-rank", "0"], WorkloadError),
])
def test_zero_counts_are_rejected_not_defaulted(flags, error):
    """0 is a value, not "unset": it must fail validation rather than
    silently run with a default node or region count."""
    with pytest.raises(error):
        main([
            "compare", "--processes", "2", "--dservers", "2",
            "--cservers", "1", "--file-size", "4MB", "--no-result-cache",
            *flags,
        ])


def _must_not_run(*args, **kwargs):
    raise AssertionError("ran before checking --jobs")


@pytest.mark.parametrize("argv, runner", [
    (["experiments", "--only", "table3", "--scale", "0.02"],
     "repro.experiments.__main__.run_all"),
    (["compare", "--processes", "2", "--dservers", "2", "--cservers", "1",
      "--file-size", "4MB", "--no-result-cache"],
     "repro.parallel.steal_fanout"),
    (["bench", "--only", "event_loop"], "repro.bench.cli.run_suite"),
], ids=["experiments", "compare", "bench"])
def test_negative_jobs_rejected_at_parse_time(argv, runner, monkeypatch):
    """A negative --jobs fails in argparse (exit 2) even when the
    command has a single task and would never start a fan-out."""
    monkeypatch.setattr(runner, _must_not_run)
    with pytest.raises(SystemExit) as excinfo:
        main([*argv, "--jobs", "-1"])
    assert excinfo.value.code == 2


@pytest.mark.parametrize("jobs_flags, expected", [
    ([], 2),
    (["--jobs", "0"], 3),
    (["--jobs", "1"], 1),
], ids=["default", "all-cores", "explicit"])
def test_bench_receipts_resolve_jobs(jobs_flags, expected, tmp_path,
                                     monkeypatch):
    """--jobs 0 means all cores for the sweep receipt too; without
    --jobs it runs two workers wide."""
    monkeypatch.setattr("repro.parallel.stealing.os_cpu_count", lambda: 3)
    seen = []

    def capture(name, path, scale, repeats, jobs, progress):
        seen.append((name, jobs))
        return 0

    monkeypatch.setattr("repro.bench.cli.write_receipt", capture)
    out = str(tmp_path / "sweep.json")
    assert main(["bench", "--receipt", "sweep", "--json", out,
                 *jobs_flags]) == 0
    assert seen == [("sweep", expected)]


def test_experiments_forwarding(capsys):
    assert main(["experiments", "--list"]) == 0
    out = capsys.readouterr().out
    assert "fig6a" in out
    assert "table4" in out


@pytest.mark.parametrize("only", [["fig6c"], ["table3", "fig6c"], []],
                         ids=["alone", "beside-a-known-id", "none"])
def test_experiments_rejects_unknown_only_ids(only, tmp_path, monkeypatch):
    """An unknown --only id, or none, exits 2 before anything runs or
    is written (it used to leave a "0/0 experiments" document)."""
    def must_not_run(*args, **kwargs):
        raise AssertionError("ran with an unknown --only id")

    monkeypatch.setattr("repro.experiments.__main__.run_all", must_not_run)
    out = tmp_path / "EXPERIMENTS.md"
    with pytest.raises(SystemExit) as excinfo:
        main(["experiments", "--only", *only, "--out", str(out)])
    assert excinfo.value.code == 2
    assert not out.exists()


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_compare_with_streaming_telemetry(tmp_path, capsys):
    series = tmp_path / "series.jsonl"
    metrics = tmp_path / "metrics.json"
    code = main([
        "compare", "--processes", "2", "--requests-per-rank", "16",
        "--dservers", "2", "--cservers", "2", "--jobs", "4",
        "--sample-interval", "0.5", "--series-out", str(series),
        "--metrics-out", str(metrics), "--profile",
    ])
    assert code == 0
    out = capsys.readouterr().out
    # Telemetry lives in the parent process: spawn workers are off.
    assert "forcing --jobs 1" in out
    assert "time series:" in out
    assert "engine wall-time by component" in out

    import json

    rows = [json.loads(line) for line in
            series.read_text().splitlines() if line.strip()]
    assert rows
    assert any(r["series"] == "cache.read_hit_ratio" for r in rows)
    assert any(r["kind"] == "latency" and "p99" in r for r in rows)
    document = json.loads(metrics.read_text())
    # compare = two runs (stock + S4D) -> a multi-run snapshot.
    assert set(document) == {"runs"}
    assert len(document["runs"]) == 2


def test_monitor_once_via_main(tmp_path, capsys):
    import json

    series = tmp_path / "series.jsonl"
    series.write_text(json.dumps(
        {"t": 1.0, "run": 0, "phase": None, "series": "cache.read_hits",
         "kind": "counter", "count": 5, "window_count": 5, "rate": 5.0}
    ) + "\n")
    assert main(["monitor", str(series), "--once"]) == 0
    out = capsys.readouterr().out
    assert "cache.read_hits" in out
