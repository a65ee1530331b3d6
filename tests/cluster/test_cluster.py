"""Tests for the cluster spec, calibration, builder and runner."""

import pytest

from repro.cluster import (
    ClusterSpec,
    build_cluster,
    calibrate_cost_params,
    run_workload,
)
from repro.core import CostModel
from repro.errors import ConfigError, ExperimentError
from repro.iosig import trace_records
from repro.units import GiB, KiB, MiB
from repro.workloads import IORWorkload


def small_spec(**overrides):
    defaults = dict(num_dservers=4, num_cservers=2, num_nodes=4, seed=3)
    defaults.update(overrides)
    return ClusterSpec(**defaults)


# -- spec ----------------------------------------------------------------

def test_paper_testbed_defaults():
    spec = ClusterSpec.paper_testbed()
    assert spec.num_dservers == 8
    assert spec.num_cservers == 4
    assert spec.num_nodes == 32
    assert spec.d_stripe == 64 * KiB


def test_spec_validation():
    with pytest.raises(ConfigError):
        ClusterSpec(num_dservers=0)
    with pytest.raises(ConfigError):
        ClusterSpec(cache_fraction=1.5)
    with pytest.raises(ConfigError):
        ClusterSpec(cache_capacity=-1)
    for bad in (
        dict(rebuild_interval=0),
        dict(rebuild_budget=0),
        dict(metadata_shards=0),
        dict(server_overhead=-1e-6),
        dict(lookup_overhead=-1e-6),
        dict(metadata_sync_cost=-1e-6),
        dict(policy="bogus"),
        dict(policy="size:-4"),
    ):
        with pytest.raises(ConfigError):
            ClusterSpec(**bad)


def test_capacity_for_fraction_and_override():
    spec = ClusterSpec(cache_fraction=0.2)
    assert spec.capacity_for(100 * MiB) == 20 * MiB
    fixed = ClusterSpec(cache_capacity=2 * GiB)
    assert fixed.capacity_for(100 * MiB) == 2 * GiB


# -- calibration ---------------------------------------------------------

def test_calibration_lands_in_paper_regime():
    """The headline: crossover in single-digit MB for the testbed."""
    params = calibrate_cost_params(ClusterSpec.paper_testbed())
    model = CostModel(params)
    far = 1 << 40
    assert model.benefit("write", 0, 16 * KiB, far) > 0
    assert model.benefit("write", 0, 16 * MiB, far) < 0
    crossover = model.crossover_size("write", far)
    assert crossover is not None
    assert MiB < crossover < 16 * MiB


def test_calibration_beta_ordering():
    params = calibrate_cost_params(ClusterSpec.paper_testbed())
    # Streamed HDD cost is below the network-capped small-request SSD
    # cost (the reason large requests stay on DServers)...
    assert params.beta_d_write < params.beta_c_write
    # ...but the SSD pays no startup: cost-model parameters sane.
    assert params.avg_rotation > 1e-3
    assert params.max_seek > 5e-3


def test_calibration_cached():
    spec = ClusterSpec.paper_testbed()
    assert calibrate_cost_params(spec) is calibrate_cost_params(spec)


# -- builder ---------------------------------------------------------------

def test_build_stock_cluster():
    cluster = build_cluster(small_spec(), s4d=False)
    assert cluster.middleware is None
    assert cluster.cpfs is None
    assert cluster.layer is cluster.direct
    assert len(cluster.dservers) == 4
    assert cluster.cservers == []


def test_build_s4d_cluster():
    cluster = build_cluster(small_spec(), s4d=True, cache_capacity="4MB")
    assert cluster.middleware is not None
    assert cluster.layer is cluster.middleware
    assert cluster.middleware.space.capacity == 4 * MiB
    assert len(cluster.cservers) == 2
    assert cluster.dservers[0].device.kind == "hdd"
    assert cluster.cservers[0].device.kind == "ssd"


def test_build_s4d_without_cservers_rejected():
    with pytest.raises(ConfigError):
        build_cluster(small_spec(num_cservers=0), s4d=True)


def test_policy_override():
    cluster = build_cluster(
        small_spec(), s4d=True, cache_capacity=MiB, policy="always"
    )
    assert cluster.middleware.policy.name == "always"


# -- runner ------------------------------------------------------------------

@pytest.fixture(scope="module")
def ior_results():
    spec = ClusterSpec(num_dservers=4, num_cservers=2, num_nodes=4, seed=3)
    w = IORWorkload(4, "16KB", "4MB", pattern="random", seed=2)
    stock = run_workload(spec, w, s4d=False)
    s4d = run_workload(spec, w, s4d=True)
    return stock, s4d


def test_runner_produces_both_phases(ior_results):
    stock, _ = ior_results
    assert set(stock.phases) == {"write", "read1", "read2"}
    assert stock.write_bandwidth > 0
    assert stock.read_bandwidth > 0


def test_runner_s4d_beats_stock_on_random_small(ior_results):
    stock, s4d = ior_results
    assert s4d.write_bandwidth > stock.write_bandwidth
    assert s4d.read_bandwidth > stock.read_bandwidth


def test_second_read_run_faster_with_cache(ior_results):
    _, s4d = ior_results
    assert s4d.read_bandwidth >= s4d.first_read_bandwidth


def test_runner_traces_requests(ior_results):
    stock, s4d = ior_results
    assert len(trace_records(stock)) > 0
    assert all(r.cserver_bytes == 0 for r in trace_records(stock))
    assert any(r.cserver_bytes > 0 for r in trace_records(s4d))


def test_runner_rejects_empty_and_bad_phase():
    spec = small_spec()
    with pytest.raises(ExperimentError):
        run_workload(spec, [])
    w = IORWorkload(2, "16KB", "1MB")
    with pytest.raises(ExperimentError):
        run_workload(spec, w, phases=("erase",))


def test_multiple_instances_accumulate():
    spec = small_spec()
    ws = [
        IORWorkload(2, "16KB", "1MB", pattern="sequential", path="/a", seed=0),
        IORWorkload(2, "16KB", "1MB", pattern="random", path="/b", seed=1),
    ]
    result = run_workload(spec, ws, s4d=False, phases=("write",))
    assert result.phases["write"].bytes_moved == 2 * MiB
    assert len(result.phases["write"].per_instance) == 2
