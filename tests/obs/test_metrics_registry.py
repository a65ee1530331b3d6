"""MetricsRegistry and summarize() tests."""

import json

import pytest

from repro.cluster import ClusterSpec, run_workload
from repro.errors import ConfigError
from repro.obs import MetricsRegistry, Tracer, registry_for_cluster, summarize
from repro.sim.monitor import Counter, IntervalLog, Tally
from repro.workloads import IORWorkload


def test_summarize_monitor_primitives():
    counter = Counter("c")
    counter.add(10.0)
    assert summarize(counter) == {"count": 1, "total": 10.0, "mean": 10.0}

    tally = Tally("t")
    tally.observe(2.0)
    tally.observe(4.0)
    summary = summarize(tally)
    assert summary["count"] == 2
    assert summary["min"] == 2.0 and summary["max"] == 4.0

    log = IntervalLog()
    log.record(0.0, 1.0)
    assert summarize(log) == {"intervals": 1, "busy_time": 1.0}


def test_summarize_misc_values():
    assert summarize(7) == 7
    assert summarize("x") == "x"
    assert summarize(None) is None
    assert summarize(True) is True
    assert summarize(lambda: 5) == 5
    assert summarize({"a": 1}) == {"a": 1}

    class WithDict:
        def as_dict(self):
            return {"k": 1}

    assert summarize(WithDict()) == {"k": 1}
    assert isinstance(summarize(object()), str)  # repr fallback


def test_registry_nesting_and_duplicates():
    registry = MetricsRegistry()
    registry.register("a.b.c", 1)
    registry.register("a.b.d", 2)
    registry.register("top", 3)
    assert registry.snapshot() == {"a": {"b": {"c": 1, "d": 2}}, "top": 3}
    assert registry.names() == ["a.b.c", "a.b.d", "top"]
    assert "top" in registry and len(registry) == 3
    with pytest.raises(ConfigError):
        registry.register("top", 4)
    with pytest.raises(ConfigError):
        registry.register("", 4)


def test_registry_conveniences_and_json():
    registry = MetricsRegistry()
    registry.register("reqs", Counter("reqs")).add(2.0)
    registry.register("lat", Tally("lat")).observe(1.0)
    data = json.loads(registry.to_json())
    assert data["reqs"]["count"] == 1
    assert data["lat"]["mean"] == 1.0


def test_registry_for_cluster_snapshot(tmp_path):
    spec = ClusterSpec(num_dservers=2, num_cservers=1, num_nodes=2, seed=5)
    workload = IORWorkload(2, 16 * 1024, 4 * 1024 * 1024,
                           pattern="random", seed=5, requests_per_rank=8)
    tracer = Tracer()
    result = run_workload(spec, workload, s4d=True, obs=tracer, read_runs=1)
    registry = registry_for_cluster(result.cluster, tracer=tracer)

    snapshot = registry.snapshot()
    assert snapshot["sim"]["now"] > 0
    assert "dserver0" in snapshot["servers"]
    assert snapshot["servers"]["dserver0"]["device"]["kind"] == "hdd"
    assert snapshot["network"]["total_bytes"] > 0
    assert snapshot["cache"]["metrics"]["benefit_evaluations"] > 0
    assert 0.0 <= snapshot["cache"]["metrics"]["read_hit_ratio"] <= 1.0
    assert snapshot["tracer"]["spans"] == len(tracer)

    out = tmp_path / "metrics.json"
    registry.write_json(str(out))
    assert json.loads(out.read_text())["sim"]["now"] == snapshot["sim"]["now"]
