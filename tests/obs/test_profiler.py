"""EngineProfiler: wall-time attribution without result perturbation."""

from repro.cluster import build_cluster, run_workload
from repro.experiments import common
from repro.obs.streaming import EngineProfiler, component_of
from repro.obs.streaming.profiler import NOT_DISPATCHED
from repro.sim import Simulator


def _worker(sim, log, delay, rounds):
    for _ in range(rounds):
        yield sim.timeout(delay)
        log.append(sim.now)


def _drive(profiled):
    sim = Simulator(seed=5)
    log = []
    for i in range(3):
        sim.spawn(_worker(sim, log, 0.1 * (i + 1), 5), name=f"rank{i}")
    sim.spawn(_worker(sim, log, 0.07, 4), name="read:/data/f.dat")
    profiler = EngineProfiler(sim) if profiled else None
    sim.run()
    return sim, log, profiler


def test_profiled_run_is_bit_identical():
    _, plain_log, _ = _drive(profiled=False)
    _, prof_log, _ = _drive(profiled=True)
    assert [t.hex() for t in plain_log] == [t.hex() for t in prof_log]


def test_report_attributes_by_component():
    sim, _, profiler = _drive(profiled=True)
    components = {row["component"] for row in profiler.report()}
    # rank0/rank1/rank2 fold into "rank"; "read:/data/f.dat" -> "read".
    assert "rank" in components
    assert "read" in components
    by_name = {row["component"]: row for row in profiler.report()}
    # Every timeout dispatch is charged to the process that waits on
    # it, plus spawn/teardown events — at least one per round.
    assert by_name["rank"]["events"] >= 15
    assert by_name["read"]["events"] >= 4
    assert profiler.total_events >= 19
    assert profiler.total_wall > 0.0
    shares = sum(row["share"] for row in profiler.report())
    assert shares <= 1.0 + 1e-9


def test_render_mentions_components_and_overhead():
    _, _, profiler = _drive(profiled=True)
    text = profiler.render()
    assert "engine wall-time by component" in text
    assert "rank" in text
    assert "(pop/bookkeeping)" in text
    assert "not dispatched" in text


def test_report_counts_events_continued_inline(monkeypatch):
    # A small S4D run with no telemetry, so nothing is cancelled: every
    # event scheduled but not dispatched is one that continued inline.
    spec = common.testbed(num_nodes=4)
    campaign = common.ior_campaign(4, "16KB", instances=2, sequential=1,
                                   requests_per_rank=8)
    capacity = spec.capacity_for(sum(w.data_bytes() for w in campaign))
    cluster = build_cluster(spec, s4d=True, cache_capacity=capacity)
    sim = cluster.sim
    inline = []

    def counting(method):
        def counted(self, arg):
            done = method(self, arg)
            if self is sim:  # not a calibration run's simulator
                inline.append(done)
            return done
        return counted

    for name in ("advance", "take"):
        monkeypatch.setattr(Simulator, name, counting(getattr(Simulator, name)))
    profiler = EngineProfiler(sim)
    before = sim.events_scheduled
    run_workload(spec, campaign, s4d=True, cluster=cluster,
                 phases=("interleaved",), read_runs=1)
    assert sim.queued_events == 0
    *rows, skipped = profiler.report()
    assert skipped["component"] == NOT_DISPATCHED
    assert sum(row["events"] for row in rows) == profiler.total_events
    assert (profiler.total_events + skipped["events"]
            == profiler.total_scheduled == sim.events_scheduled - before)
    assert skipped["events"] == inline.count(True) > 0


def test_detach_restores_plain_loop():
    sim = Simulator(seed=5)
    profiler = EngineProfiler(sim)
    assert sim._profiler is profiler
    profiler.detach()
    assert sim._profiler is None
    # Detaching someone else's profiler is a no-op.
    p1 = EngineProfiler(sim)
    p2 = EngineProfiler(sim)
    p1.detach()  # p2 owns the slot now
    assert sim._profiler is p2


def test_component_of_name_folding():
    sim = Simulator(seed=1)
    proc = sim.spawn(_worker(sim, [], 0.1, 1), name="dserver7")
    assert component_of(proc) == "dserver"
    # Unnamed processes fall back to the generator's function name.
    anon = sim.spawn(_worker(sim, [], 0.1, 1))
    assert component_of(anon) == "_worker"
    sim.run()
