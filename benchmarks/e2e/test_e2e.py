"""Tests of the end-to-end benchmark.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import re

import pytest

import layers
import run
from measure import measure, requests_of
from oracle import check_requests
from workloads import WORKLOADS, Workload

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: Reduced shapes of the real workloads, small enough for a unit test.
SMALL_FIG6 = dict(ranks=4, requests_per_rank=16, instances=2, sequential=1)
SMALL_IOR = dict(ranks=64, requests_per_rank=4)


def small(name: str) -> Workload:
    shape = SMALL_FIG6 if name.startswith("fig6") else SMALL_IOR
    return dataclasses.replace(WORKLOADS[name], **shape)


@pytest.fixture(scope="module")
def benchmark_spec() -> dict:
    with open(run.BENCHMARK) as fh:
        return json.load(fh)


def test_every_repro_module_maps_to_a_declared_layer():
    repro_dir = os.path.join(run.SRC, "repro")
    declared = set(layers.LAYERS) | {layers.TRACE}
    unmapped = []
    for dirpath, _, files in os.walk(repro_dir):
        for filename in files:
            if filename.endswith(".py"):
                module = layers.module_of_file(
                    os.path.join(dirpath, filename), repro_dir)
                if layers.layer_of_module(module) not in declared:
                    unmapped.append(module)
    assert not unmapped, f"modules without a layer: {unmapped}"
    assert layers.layer_of_module("core.newmodule") is None
    assert layers.layer_of_module("newpackage.module") is None


def test_oracle_flags_stale_stamp_and_dropped_request():
    workload = small("fig6-s4d")
    spec, campaign, cluster = workload.build(0)
    results = requests_of(workload.execute(spec, campaign, cluster))
    expected = workload.expected_requests
    assert check_requests(results, expected) == (0, [])

    read = next(i for i, r in enumerate(results) if r.op == "read")
    stale = list(results)
    stale[read] = dataclasses.replace(
        results[read],
        segments=[(s, e, stamp - 1) for s, e, stamp in results[read].segments])
    failed, errors = check_requests(stale, expected)
    assert failed == 1 and "oracle" in errors[0]

    failed, errors = check_requests(results[:-1], expected)
    assert failed == 1 and f"{expected} expected" in errors[0]


def test_benchmark_json_names_and_workloads(benchmark_spec):
    assert {w["name"] for w in benchmark_spec["workloads"]} <= set(WORKLOADS)
    metrics = benchmark_spec["end_to_end"] + benchmark_spec["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert all(0 < m["bound"] <= 0.25 for m in benchmark_spec["end_to_end"])


@pytest.mark.parametrize("name", ["fig6-s4d", "fig6-stock", "ior-seq-1024"])
def test_smoke_run_prints_exactly_the_declared_metrics(name):
    workload = small(name)
    runs = [measure(workload, 0), measure(workload, 0)]
    traced = measure(workload, 0, traced=True)
    for record in runs + [traced]:
        assert record["failed"] == 0 and not record["errors"]
        assert record["requests"] == workload.expected_requests
    assert len({r["digest"] for r in runs + [traced]}) == 1

    e2e_units, layer_units = run.declared_units()
    samples = run.end_to_end(runs, runs)
    printed = run.with_units({k: v[0] for k, v in samples.items()}, e2e_units)
    printed.update(run.with_units(run.per_layer(traced), layer_units))
    assert all(NAME.fullmatch(n) for n in printed)

    layer = {k: v["value"] for k, v in printed.items()}
    assert sum(layer[f"{x}.share"] for x in layers.LAYERS) == pytest.approx(1.0)
    assert layer["trace.self_s"] > 0
    assert layer["pfs.server.queue_wait_sim_s"] > 0
    core = [x for x in layers.LAYERS if x.startswith("core.")]
    if workload.s4d:
        assert layer["core.middleware.self_s"] > 0
    else:
        assert all(layer[f"{x}.self_s"] == 0 for x in core)


def test_inputs_match_the_experiments():
    """Building the cluster ahead of run_workload, and splitting the
    ior-seq phases into two calls, change no simulated result."""
    from repro.cluster import run_workload

    for name in ("fig6-s4d", "fig6-stock", "ior-seq-1024"):
        workload = small(name)
        spec, campaign, cluster = workload.build(0)
        ours = {}
        for _, result, _ in workload.execute(spec, campaign, cluster):
            ours.update(result.phases)
        phases = (("interleaved",) if workload.schedule == "interleaved"
                  else ("write", "read"))
        spec, campaign, _ = workload.build(0)
        theirs = run_workload(spec, campaign, s4d=workload.s4d, phases=phases,
                              read_runs=workload.read_runs)
        assert {k: p.bandwidth for k, p in ours.items()} == {
            k: p.bandwidth for k, p in theirs.phases.items()}
        assert cluster.sim.now == theirs.cluster.sim.now


def test_compare_verdicts():
    from compare import judge

    base = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
    same = judge(base, list(base), "lower", 0.1)
    assert same["verdict"] == "no worse" and same["win_share"] == 0
    assert judge(base, [b * 0.8 for b in base], "lower", 0.1)["verdict"] == "improved"
    assert judge(base, [b * 1.2 for b in base], "lower", 0.1)["verdict"] == "worse"
    assert judge(base, [b * 1.2 for b in base], "higher", 0.1)["verdict"] == "improved"
    noisy = [10.0, 14.0, 8.0, 13.0, 9.0, 12.0, 7.0, 15.0, 10.0, 11.0]
    assert judge(noisy, [n * 1.05 for n in noisy], "lower", 0.1)["verdict"] == "unresolved"
