"""Differential tests: ``Simulator.gather`` ≡ spawn + ``all_of``, hop for hop.

``gather`` runs a lone body inline in its caller but keeps the three
zero-delay hops a spawned flow takes (bootstrap, completion, the
AllOf's), so every event keeps its run-queue slot and sequence number.
These tests hold it to that against the reference below: random
programs of competing processes must produce the same observation
stream and the same ``events_scheduled``, and reduced campaigns —
including the Rebuilder killing movers mid-I/O — the same digests.
"""

import pytest

from repro.cluster import build_cluster, run_workload
from repro.experiments import common
from repro.sim import PriorityResource, Process, Simulator

from ..cluster.test_no_cycles import CAMPAIGNS

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402


def spawn_and_join(sim, bodies, name=""):
    """The reference fan-out: one process per body, joined by all_of."""
    return (yield sim.all_of([sim.spawn(body, name=name) for body in bodies]))


def gather(sim, bodies, name=""):
    return sim.gather(bodies, name=name)


def run_program(fan, capacity, program):
    """Run ``program`` with ``fan`` as the fan-out; return what it saw.

    Each process and fan-out body logs ``(sim.now, who, step)`` after
    every op, and the result adds the engine's event odometer.
    """
    sim = Simulator(seed=3)
    device = PriorityResource(sim, capacity=capacity, name="dev")
    out = []

    def body(who, ops):
        for step, (kind, arg) in enumerate(ops):
            if kind == "t":
                yield sim.timeout(arg)
            elif kind == "res":
                grant = yield device.acquire()
                try:
                    yield sim.timeout(arg)
                finally:
                    device.release(grant)
            else:
                names = [f"{who}.{i}" for i in range(len(arg))]
                values = yield from fan(
                    sim, [body(n, sub) for n, sub in zip(names, arg)],
                    name="flow")
                assert values == names
            out.append((sim.now, who, step))
        return who

    for p, ops in enumerate(program):
        sim.spawn(body(str(p), ops), name=f"p{p}")
    sim.run()
    return out, sim.events_scheduled


# Delays drawn from a tiny set so that events tie at the same instant
# and only sequence numbers order them.
_DELAY = st.sampled_from([0.0, 0.0, 1e-6, 2e-6])
_LEAF = st.one_of(st.tuples(st.just("t"), _DELAY),
                  st.tuples(st.just("res"), _DELAY))


def _ops(depth):
    op = _LEAF
    if depth:
        op = st.one_of(_LEAF, st.tuples(
            st.just("fan"), st.lists(_ops(depth - 1), min_size=1,
                                     max_size=3)))
    return st.lists(op, min_size=1, max_size=4)


_PROGRAM = st.lists(_ops(2), min_size=2, max_size=5)


@settings(max_examples=60, deadline=None)
@given(capacity=st.sampled_from([1, 2]), program=_PROGRAM)
# A lone flow racing a neighbour's run of zero-delay timeouts.
@example(capacity=1,
         program=[[("fan", [[("t", 1e-6)]]), ("t", 0.0)], [("t", 0.0)] * 5])
def test_gather_matches_spawn_and_join(capacity, program):
    assert (run_program(gather, capacity, program)
            == run_program(spawn_and_join, capacity, program))


def test_lone_body_keeps_three_hops():
    """One body runs inline: three extra events and no Process."""
    sim = Simulator()

    def lone():
        yield sim.timeout(1.0)
        return "v"

    def parent():
        return (yield from sim.gather([lone()]))

    assert sim.run_process(parent()) == ["v"]
    # Parent bootstrap + completion, three hops and the timeout.
    assert sim.events_scheduled == 6
    assert sim._next_pid == 1


@pytest.mark.parametrize("fan", [gather, spawn_and_join])
@pytest.mark.parametrize("width", [1, 2])
def test_failing_body_raises_in_its_parent(fan, width):
    sim = Simulator()

    def ok():
        yield sim.timeout(2.0)

    def failing():
        yield sim.timeout(1.0)
        raise KeyError("boom")

    def parent():
        with pytest.raises(KeyError, match="boom"):
            yield from fan(sim, [failing()] + [ok()] * (width - 1))
        return sim.now

    assert sim.run_process(parent()) == 1.0


# -- campaign level -------------------------------------------------------
def _run_campaign(name):
    shape = CAMPAIGNS[name]
    spec = common.testbed(num_nodes=shape["num_nodes"])
    campaign = common.ior_campaign(
        shape["ranks"], "16KB", instances=shape["instances"],
        sequential=shape["sequential"],
        requests_per_rank=shape["requests_per_rank"],
    )
    capacity = spec.capacity_for(sum(w.data_bytes() for w in campaign))
    cluster = build_cluster(spec, s4d=True, cache_capacity=capacity)
    result = run_workload(spec, campaign, s4d=True, cluster=cluster,
                          phases=shape["phases"],
                          read_runs=shape["read_runs"])
    sim = cluster.sim
    return (sim.now.hex(), sim.events_scheduled,
            {k: p.bandwidth.hex() for k, p in result.phases.items()})


@pytest.mark.parametrize("name", ["fig6-s4d", "ior-256"])
def test_campaign_matches_spawn_and_join(name, monkeypatch):
    kills = []
    real_kill = Process.kill

    def counting_kill(self, reason=""):
        if self.name == "rebuilder-mv" and self._waiting_on is not None:
            kills.append(self.name)
        real_kill(self, reason)

    monkeypatch.setattr(Process, "kill", counting_kill)
    inline = _run_campaign(name)
    inline_kills = len(kills)
    monkeypatch.setattr(Simulator, "gather", spawn_and_join)
    spawned = _run_campaign(name)
    assert inline == spawned
    assert len(kills) == 2 * inline_kills
    if name == "fig6-s4d":
        # Closing the last file made stop() kill movements mid-I/O.
        assert inline_kills > 0
