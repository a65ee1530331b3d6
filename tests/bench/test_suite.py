"""Tests for the perf-regression harness (suite, schema, CLI gate)."""

import json

import pytest

from repro.bench import cli
from repro.bench.suite import (
    BenchResult,
    SUITE,
    compare_to_baseline,
    run_suite,
    suite_names,
)

# Microbenchmarks only: the end-to-end entry is exercised separately in
# CI's bench-smoke job (it runs a full fig6 campaign point).
MICRO = [n for n in suite_names() if n != "fig6_e2e"]


def test_suite_registers_expected_benchmarks():
    assert {
        "event_loop", "timeout_storm", "resource_handoff",
        "intervalmap_ops", "dmt_ops", "cdt_ops", "fig6_e2e",
    } <= set(suite_names())


def test_micro_suite_runs_at_tiny_scale():
    results = run_suite(scale=0.01, only=MICRO, repeats=1)
    assert [r.name for r in results] == MICRO
    for result in results:
        assert result.wall_s > 0
        assert result.units > 0
        assert result.mode in ("throughput", "wall")
        assert result.throughput > 0


def test_unknown_benchmark_rejected():
    with pytest.raises(ValueError):
        run_suite(only=["no_such_bench"])


def test_result_schema_round_trips():
    result = BenchResult(
        name="demo", wall_s=2.0, units=4000, unit="ops",
        mode="throughput", repeats=3,
    )
    data = result.as_dict()
    assert data["throughput"] == pytest.approx(2000.0)
    assert data["seconds_per_kunit"] == pytest.approx(0.5)
    assert set(data) == {
        "name", "wall_s", "units", "unit", "mode", "repeats",
        "throughput", "seconds_per_kunit",
    }


def _baseline(**overrides):
    base = {
        "name": "demo", "wall_s": 1.0, "units": 1000, "unit": "ops",
        "mode": "throughput", "repeats": 3, "throughput": 1000.0,
        "seconds_per_kunit": 1.0,
    }
    base.update(overrides)
    return {"results": [base]}


def test_compare_flags_throughput_regression():
    slow = BenchResult(name="demo", wall_s=2.0, units=1000, unit="ops",
                       mode="throughput", repeats=3)  # 500/s vs 1000/s
    regressions = compare_to_baseline([slow], _baseline(), tolerance=0.25)
    assert len(regressions) == 1 and "demo" in regressions[0]


def test_compare_is_scale_invariant_for_wall_mode():
    # Same seconds-per-unit at 10x the problem size: not a regression.
    big = BenchResult(name="demo", wall_s=10.0, units=10_000, unit="ops",
                      mode="wall", repeats=1)
    baseline = _baseline(mode="wall", seconds_per_kunit=1.0)
    assert compare_to_baseline([big], baseline, tolerance=0.25) == []
    # 2x the normalised cost: flagged.
    slow = BenchResult(name="demo", wall_s=20.0, units=10_000, unit="ops",
                       mode="wall", repeats=1)
    assert len(compare_to_baseline([slow], baseline, tolerance=0.25)) == 1


def test_compare_within_tolerance_passes():
    ok = BenchResult(name="demo", wall_s=1.2, units=1000, unit="ops",
                     mode="throughput", repeats=3)  # -17% > -25%
    assert compare_to_baseline([ok], _baseline(), tolerance=0.25) == []


def test_compare_skips_unknown_benchmarks():
    novel = BenchResult(name="brand_new", wall_s=1.0, units=10, unit="ops",
                        mode="throughput", repeats=1)
    assert compare_to_baseline([novel], _baseline()) == []


def test_cli_json_and_check_gate(tmp_path):
    out = tmp_path / "bench.json"
    rc = cli.main([
        "--scale", "0.01", "--only", "event_loop", "--repeat", "1",
        "--json", str(out),
    ])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == 1
    assert doc["scale"] == 0.01
    assert [r["name"] for r in doc["results"]] == ["event_loop"]

    # A baseline any host beats passes the gate (one event/s: a second
    # wall-timed run against the first would gate on host speed)...
    doc["results"][0]["throughput"] = 1.0
    trivial = tmp_path / "trivial.json"
    trivial.write_text(json.dumps(doc))
    rc = cli.main([
        "--scale", "0.01", "--only", "event_loop", "--repeat", "1",
        "--check", str(trivial), "--tolerance", "0.5",
    ])
    assert rc == 0

    # ...an impossible baseline fails it.
    doc["results"][0]["throughput"] = 1e15
    impossible = tmp_path / "impossible.json"
    impossible.write_text(json.dumps(doc))
    rc = cli.main([
        "--scale", "0.01", "--only", "event_loop", "--repeat", "1",
        "--check", str(impossible), "--tolerance", "0.25",
    ])
    assert rc == 1


def test_cli_list():
    assert cli.main(["--list"]) == 0


def test_fig6_e2e_builder_shape():
    """The e2e benchmark declares sane units without being run."""
    builder, repeats = SUITE["fig6_e2e"]
    assert repeats == 1
    build, units, unit, mode = builder(0.1)
    assert mode == "wall" and unit == "requests" and units > 0
    assert callable(build)


def test_parallel_suite_matches_serial_shape():
    """--jobs distributes benchmarks but preserves suite order and the
    deterministic fields (name/units/unit/mode); wall times may differ."""
    names = ["intervalmap_ops", "dmt_ops"]
    serial = run_suite(scale=0.01, only=names, repeats=1)
    parallel = run_suite(scale=0.01, only=names, repeats=1, jobs=2)
    assert [r.name for r in parallel] == [r.name for r in serial] == names
    for s, p in zip(serial, parallel):
        assert (p.units, p.unit, p.mode, p.repeats) == (
            s.units, s.unit, s.mode, s.repeats
        )
        assert p.wall_s > 0
