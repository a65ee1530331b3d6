"""Tracer/TraceContext tests: nesting, the untraced path, profiling,
and the span tree of a traced S4D run."""

import collections

import pytest

from repro.cluster import ClusterSpec, build_cluster, run_workload
from repro.mpiio import MPIFile
from repro.obs import Span, TraceContext, Tracer
from repro.sim import Simulator
from repro.units import KiB, MiB
from repro.workloads import IORWorkload


def _traced_request(sim, tracer):
    """One request descending two layers while sim time advances."""
    ctx = tracer.request(3, "read", "/f", 0, 4096)

    def flow():
        span = ctx.begin("pfs_io", cat="pfs", component="app")
        sub = ctx.under(span)
        yield sim.timeout(0.5)
        inner = sub.begin("service", cat="server", component="dserver0")
        yield sim.timeout(1.0)
        sub.end(inner, op="read")
        ctx.end(span)
        ctx.finish()

    sim.run_process(flow(), name="req")
    return ctx


def test_spans_nest_under_request_root():
    sim = Simulator(seed=1)
    tracer = Tracer(sim)
    _traced_request(sim, tracer)

    root, pfs, service = tracer.spans
    assert root.parent_id is None
    assert pfs.parent_id == root.span_id
    assert service.parent_id == pfs.span_id
    assert root.attrs["path"] == "/f"
    assert root.attrs["size"] == 4096
    assert all(s.tid == 3 for s in tracer.spans)
    assert all(s.trace_id == root.trace_id for s in tracer.spans)


def test_span_times_follow_sim_clock():
    sim = Simulator(seed=1)
    tracer = Tracer(sim)
    _traced_request(sim, tracer)

    root, pfs, service = tracer.spans
    assert root.start == 0.0
    assert root.end == 1.5
    assert service.start == 0.5
    assert service.duration == 1.0
    assert pfs.duration == 1.5


def test_finish_is_idempotent_and_closes_only_root():
    sim = Simulator(seed=1)
    tracer = Tracer(sim)
    ctx = tracer.request(0, "write", "/f", 0, 1)
    ctx.finish()
    end = tracer.spans[0].end
    ctx.finish()  # second call must not move the end time
    assert tracer.spans[0].end == end
    assert tracer.stats().open_spans == 0


def test_under_none_returns_same_context():
    sim = Simulator(seed=1)
    tracer = Tracer(sim)
    ctx = tracer.request(0, "read", "/f", 0, 1)
    assert ctx.under(None) is ctx


def test_events_are_instants_with_parent():
    sim = Simulator(seed=1)
    tracer = Tracer(sim)
    ctx = tracer.request(0, "read", "/f", 0, 1)
    ctx.event("oscache_hit", cat="oscache", component="dserver0", size=42)
    ctx.finish()
    (instant,) = tracer.instants
    assert instant.start == instant.end
    assert instant.parent_id == tracer.spans[0].span_id
    assert instant.attrs["size"] == 42


def _rebuilder_scenario(tracer=None):
    """An S4D run whose Rebuilder both flushes and fetches.

    Three far-apart critical writes leave dirty extents, four critical
    read misses leave pending fetches, and a drain moves both.
    """
    spec = ClusterSpec(num_dservers=4, num_cservers=2, num_nodes=4,
                       seed=11, rebuild_interval=0.05,
                       rebuild_budget=8 * MiB)
    cluster = build_cluster(spec, s4d=True, cache_capacity=4 * MiB)
    if tracer is not None:
        tracer.bind(cluster)
    mw = cluster.middleware

    def body():
        f = yield from MPIFile.open(mw, 0, "/data", 64 * MiB)
        for offset in (0, 8 * MiB, 24 * MiB):
            yield from f.write_at(offset, 16 * KiB)
        for i in range(4):
            yield from f.read_at(40 * MiB + i * 4 * MiB, 16 * KiB)
        yield from mw.rebuilder.drain()
        yield from f.close()

    cluster.sim.run_process(body())
    assert mw.metrics.flushes > 0 and mw.metrics.fetches > 0
    return cluster


def test_untraced_runs_build_no_context_and_no_span(monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError("an untraced run built a trace object")

    monkeypatch.setattr(TraceContext, "__init__", refuse)
    monkeypatch.setattr(Span, "__init__", refuse)
    with pytest.raises(AssertionError):
        Tracer(Simulator(seed=1)).request(0, "read", "/f", 0, 1)

    spec = ClusterSpec(num_dservers=2, num_cservers=1, num_nodes=2, seed=13)
    workload = IORWorkload(2, 16 * KiB, 4 * MiB, pattern="random", seed=13,
                           requests_per_rank=8)
    stock = run_workload(spec, workload, s4d=False, read_runs=1)
    assert stock.phases["read1"].bytes_moved > 0
    _rebuilder_scenario()


def test_traced_s4d_spans_name_the_file_system():
    """Each S4D segment is one ``pfs_io:<fs>`` span carrying its file
    system and size, directly under the request's ``execute`` span or
    under a Rebuilder movement's root."""
    tracer = Tracer()
    _rebuilder_scenario(tracer)
    spans = tracer.by_id()
    assert not [s for s in tracer.spans if s.name.startswith("segment:")]
    pfs_io = [s for s in tracer.spans if s.name.startswith("pfs_io")]
    parents = set()
    executed = collections.Counter()  # segment bytes per execute span
    for span in pfs_io:
        assert span.name == "pfs_io:" + span.attrs["fs"]
        assert span.attrs["fs"] in ("opfs", "cpfs")
        parent = spans[span.parent_id]
        parents.add(parent.name)
        if span.tid == -1:  # a Rebuilder movement
            assert parent.parent_id is None
            assert parent.name in ("rebuild_flush", "lazy_fetch")
            assert span.attrs["size"] == parent.attrs["size"]
        else:
            assert parent.name == "execute"
            executed[parent.span_id] += span.attrs["size"]
    assert parents == {"execute", "rebuild_flush", "lazy_fetch"}
    for execute, size in executed.items():
        assert size == spans[spans[execute].parent_id].attrs["size"]
    assert {s.attrs["fs"] for s in pfs_io} == {"opfs", "cpfs"}


def test_self_profiling_counts_records():
    sim = Simulator(seed=1)
    tracer = Tracer(sim)
    _traced_request(sim, tracer)
    stats = tracer.stats()
    assert stats.spans == 3
    assert stats.events == 0
    assert stats.open_spans == 0
    assert stats.overhead_wall_seconds >= 0.0
    assert tracer.as_dict()["spans"] == 3


def test_clear_resets_ids():
    sim = Simulator(seed=1)
    tracer = Tracer(sim)
    _traced_request(sim, tracer)
    tracer.clear()
    assert len(tracer) == 0
    ctx = tracer.request(0, "read", "/f", 0, 1)
    ctx.finish()
    assert tracer.spans[0].span_id == 1
    assert tracer.spans[0].trace_id == 1
