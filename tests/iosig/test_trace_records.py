"""The IOSIG trace is a view of the request results a run keeps.

An independent recorder wraps ``cluster.layer.io`` and builds a
:class:`TraceRecord` when each call returns (where a layer-level
tracer would record), measuring the request's DServer and CServer
bytes from the rank's own PFS clients.  :func:`trace_records` must
agree with it record for record.
"""

import pytest

from repro.cluster import (
    ClusterSpec,
    build_cluster,
    calibrate_cost_params,
    run_workload,
)
from repro.core import CARLPlacementLayer, CostModel, plan_placement
from repro.iosig import TraceRecord, trace_records
from repro.mpiio import MPIJob
from repro.units import MiB
from repro.workloads import IORWorkload

PROCESSES = 4


def spec():
    # One compute node per rank, so each rank's PFS clients carry only
    # that rank's (sequential) requests.
    return ClusterSpec(num_dservers=4, num_cservers=2,
                       num_nodes=PROCESSES, seed=41)


def record_layer_calls(cluster) -> list[TraceRecord]:
    """Wrap ``cluster.layer.io``; collect a record as each call returns."""
    layer = cluster.layer
    inner = layer.io
    middleware = cluster.middleware
    records = []

    def io(rank, handle, op, offset, size, *args, **kwargs):
        d_client = cluster.direct.client_for(rank)
        c_client = (middleware.cpfs_client_for(rank)
                    if middleware is not None else None)
        d_before = d_client.bytes_moved
        c_before = c_client.bytes_moved if c_client is not None else 0
        start = cluster.sim.now
        result = yield from inner(rank, handle, op, offset, size,
                                  *args, **kwargs)
        c_after = c_client.bytes_moved if c_client is not None else 0
        records.append(TraceRecord(
            time=start, rank=rank, op=op, path=handle.path,
            offset=offset, size=size,
            dserver_bytes=d_client.bytes_moved - d_before,
            cserver_bytes=c_after - c_before,
            elapsed=cluster.sim.now - start,
        ))
        return result

    layer.io = io
    return records


def campaign():
    return [
        IORWorkload(PROCESSES, "16KB", "2MB", pattern="random", seed=seed,
                    requests_per_rank=24, path=f"/ior{seed}")
        for seed in (1, 2)
    ]


def traced_run(s4d: bool, phases):
    instances = campaign()
    capacity = sum(w.data_bytes() for w in instances) // 4 if s4d else None
    cluster = build_cluster(spec(), s4d=s4d, cache_capacity=capacity)
    recorded = record_layer_calls(cluster)
    result = run_workload(spec(), instances, s4d=s4d, phases=phases,
                          cluster=cluster)
    return result, recorded


@pytest.fixture(scope="module")
def stock_run():
    return traced_run(False, ("write", "read"))


@pytest.fixture(scope="module")
def s4d_run():
    return traced_run(True, ("interleaved",))


def by_rank(records):
    ranks: dict[int, list[TraceRecord]] = {}
    for record in records:
        ranks.setdefault(record.rank, []).append(record)
    return ranks


@pytest.mark.parametrize("run", ["stock_run", "s4d_run"])
def test_trace_equals_layer_recording_rank_by_rank(run, request):
    result, recorded = request.getfixturevalue(run)
    trace = trace_records(result)
    assert by_rank(trace) == by_rank(recorded)
    kept = sum(
        len(stats.results)
        for phase in result.phases.values()
        for ranks in phase.per_instance
        for stats in ranks
    )
    assert len(trace) == kept == len(recorded)


def test_s4d_trace_totals_match_cache_metrics(s4d_run):
    result, _ = s4d_run
    trace = trace_records(result)
    metrics = result.metrics
    assert metrics.bytes_to_cservers > 0
    assert sum(r.cserver_bytes for r in trace) == metrics.bytes_to_cservers
    assert sum(r.dserver_bytes for r in trace) == metrics.bytes_to_dservers
    to_c = sum(1 for r in trace if r.target == "cservers")
    assert to_c == metrics.requests_to_cservers
    assert all(r.dserver_bytes + r.cserver_bytes == r.size for r in trace)


def test_carl_cserver_bytes_equal_ssd_server_bytes():
    cluster = build_cluster(spec(), s4d=True, cache_capacity=0)
    workload = IORWorkload(PROCESSES, "16KB", "4MB", pattern="random",
                           seed=5, requests_per_rank=32)
    model = CostModel(calibrate_cost_params(spec()))
    plan = plan_placement([workload], model, workload.data_bytes() // 2,
                          region_size=MiB)
    layer = CARLPlacementLayer(cluster.sim, cluster.direct, cluster.cpfs,
                               plan)
    stats = MPIJob(cluster.sim, layer, workload.processes).run(
        workload.make_body("write")
    )
    placed = sum(r.cserver_bytes for s in stats for r in s.results)
    assert placed > 0
    assert placed == sum(s.bytes_served for s in cluster.cservers)
    assert placed < sum(r.size for s in stats for r in s.results)
