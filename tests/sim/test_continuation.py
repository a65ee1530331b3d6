"""Inline continuation: ``advance`` and ``take`` ≡ the round trip.

``Simulator.advance(d)`` stands for ``yield sim.timeout(d)`` and
``Simulator.take(event)`` for yielding a freshly triggered grant or
lock request, but only when that event would be the loop's next one,
resuming the caller.  The skipped event keeps its sequence number, so
nothing observable may differ from the round trip.  These tests hold
both methods to that against a simulator whose methods always decline:
random programs of competing processes and reduced campaigns must see
the same observations, ``events_scheduled``, clock and resource state.
"""

import pytest

from repro.errors import ProcessKilled
from repro.kvstore.locking import LockManager
from repro.sim import PriorityResource, Simulator

from .test_gather_properties import _run_campaign

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402


class RoundTrip(Simulator):
    """The reference: every wait takes its round trip through the loop."""

    def advance(self, delay):
        return False

    def take(self, event):
        return False


def run_program(sim_cls, capacity, program, until):
    """Run ``program`` on a ``sim_cls``; return everything it saw.

    Each top-level process and fan-out body logs ``(sim.now, who,
    step, joined)`` after every op, ``joined`` being a join's value.
    ``until`` stops a first ``run`` early; a second one drains the
    queue.
    """
    sim = sim_cls(seed=3)
    device = PriorityResource(sim, capacity=capacity, name="dev")
    locks = LockManager(sim)
    procs = []
    out = []

    def body(owner, who, ops):
        for step, (kind, arg) in enumerate(ops):
            joined = None
            if kind == "t":
                if not sim.advance(arg):
                    yield sim.timeout(arg)
            elif kind == "res":
                grant = device.acquire()
                if not sim.take(grant):
                    yield grant
                try:
                    if not sim.advance(arg):
                        yield sim.timeout(arg)
                finally:
                    device.release(grant)
            elif kind == "lock":
                token = locks.acquire("k", owner=who)
                if sim.take(token):
                    token = token.token
                else:
                    token = yield token
                try:
                    if not sim.advance(arg):
                        yield sim.timeout(arg)
                finally:
                    locks.release(token)
            elif kind == "kill":
                # Only another top-level process: the owner may be the
                # one running this body inline.
                victim = arg % len(procs)
                if victim != owner:
                    procs[victim].kill()
            elif kind == "join":
                # Several joiners of one process make a multi-waiter
                # dispatch.
                joined = yield procs[arg % len(procs)]
            else:
                names = [f"{who}.{i}" for i in range(len(arg))]
                values = yield from sim.gather(
                    [body(owner, n, sub) for n, sub in zip(names, arg)],
                    name="flow")
                assert values == names
            out.append((sim.now, who, step, joined))
        return who

    def top(p, ops):
        try:
            return (yield from body(p, str(p), ops))
        except ProcessKilled:
            out.append((sim.now, str(p), "killed"))
            return "killed"

    for p, ops in enumerate(program):
        procs.append(sim.spawn(top(p, ops), name=f"p{p}"))
    states = []
    for stop in (until, None):
        sim.run(until=stop)
        states.append((sim.now, sim.events_scheduled, device.in_use,
                       device.queue_length, locks.is_held("k"),
                       locks.queue_length("k")))
    return out, states, [p.triggered and p.value for p in procs]


# Delays drawn from a tiny set so that events tie at the same instant
# and only sequence numbers order them.
_DELAY = st.sampled_from([0.0, 0.0, 1e-6, 2e-6])
_LEAF = st.one_of(
    st.tuples(st.sampled_from(["t", "res", "lock"]), _DELAY),
    st.tuples(st.sampled_from(["kill", "join"]), st.integers(0, 4)),
)


def _ops(depth):
    op = _LEAF
    if depth:
        op = st.one_of(_LEAF, st.tuples(
            st.just("fan"), st.lists(_ops(depth - 1), min_size=1,
                                     max_size=3)))
    return st.lists(op, min_size=1, max_size=5)


_PROGRAM = st.lists(_ops(2), min_size=2, max_size=5)
_UNTIL = st.sampled_from([None, 0.0, 1e-6, 2e-6, 3e-6])


@settings(max_examples=200, deadline=None)
@given(capacity=st.sampled_from([1, 2]), program=_PROGRAM, until=_UNTIL)
# A lone timeout tied with a neighbour's: the neighbour's goes first.
@example(capacity=1, program=[[("t", 1e-6), ("t", 0.0)], [("t", 1e-6)]],
         until=None)
# Two joiners of one process: the first must not run on before the
# second has been resumed.
@example(capacity=1,
         program=[[("t", 1e-6)], [("join", 0), ("t", 0.0)], [("join", 0)]],
         until=None)
# A kill mid-hold frees the slot for a waiter.
@example(capacity=1,
         program=[[("res", 2e-6)], [("res", 0.0)], [("t", 1e-6), ("kill", 0)]],
         until=1e-6)
def test_continuation_matches_round_trip(capacity, program, until):
    assert (run_program(Simulator, capacity, program, until)
            == run_program(RoundTrip, capacity, program, until))


@pytest.mark.parametrize("name", ["fig6-s4d", "ior-256"])
def test_campaign_matches_round_trip(name, monkeypatch):
    inline = _run_campaign(name)
    monkeypatch.setattr(Simulator, "advance", RoundTrip.advance)
    monkeypatch.setattr(Simulator, "take", RoundTrip.take)
    assert inline == _run_campaign(name)


# -- advance ----------------------------------------------------------------
def test_advance_moves_the_clock_and_counts_the_event():
    sim = Simulator()
    seen = []

    def proc():
        seen.append(sim.advance(0.5))
        seen.append((sim.now, sim.events_scheduled))
        seen.append(sim.advance(0.0))
        seen.append((sim.now, sim.events_scheduled))
        yield sim.timeout(0.0)

    sim.spawn(proc())
    sim.run()
    # The bootstrap is event 1; the two continuations are 2 and 3.
    assert seen == [True, (0.5, 2), True, (0.5, 3)]


def test_advance_declines_on_a_timed_tie():
    sim = Simulator()
    seen = []

    def sleeper():
        yield sim.timeout(1.0)

    def proc():
        seen.append(sim.advance(1.0))  # sleeper's timeout was first
        seen.append(sim.advance(0.5))
        yield sim.timeout(0.0)

    sim.spawn(sleeper())
    sim.spawn(proc())
    sim.run()
    assert seen == [False, True]


def test_advance_declines_past_until():
    sim = Simulator()
    seen = []

    def proc():
        seen.append(sim.advance(1.0))
        seen.append(sim.advance(0.5))
        yield sim.timeout(0.0)

    sim.spawn(proc())
    sim.run(until=0.5)
    assert seen == [False, True]


def test_advance_declines_with_a_ready_event():
    sim = Simulator()
    seen = []

    def proc():
        sim.event().succeed()
        seen.append(sim.advance(0.0))
        yield sim.timeout(0.0)

    sim.spawn(proc())
    sim.run()
    assert seen == [False]


def test_advance_declines_outside_run_and_step_dispatches_one_event():
    sim = Simulator()
    assert not sim.advance(0.0)
    log = []

    def proc():
        for _ in range(2):
            if not sim.advance(1.0):
                yield sim.timeout(1.0)
            log.append(sim.now)

    sim.spawn(proc())
    sim.step()  # the bootstrap: the process now waits on its timeout
    assert (sim.now, log, sim.queued_events) == (0.0, [], 1)
    sim.step()
    assert (sim.now, log, sim.queued_events) == (1.0, [1.0], 1)
    sim.step()
    assert (sim.now, log) == (2.0, [1.0, 2.0])
    # The bootstrap, two timeouts and the completion.
    assert sim.events_scheduled == 4


def test_advance_declines_inside_a_multi_waiter_dispatch():
    # The first joiner's next wait is not the loop's next event: the
    # second joiner is resumed before it.
    sim = Simulator()
    log = []

    def target():
        yield sim.timeout(1.0)

    def joiner(who, proc, wait):
        yield proc
        if wait and not sim.advance(0.0):
            yield sim.timeout(0.0)
        log.append(who)

    proc = sim.spawn(target())
    sim.spawn(joiner("a", proc, wait=True))
    sim.spawn(joiner("b", proc, wait=False))
    sim.run()
    assert log == ["b", "a"]


# -- take -------------------------------------------------------------------
def test_take_hands_over_an_uncontended_grant():
    sim = Simulator()
    res = PriorityResource(sim, capacity=1)
    seen = []

    def proc():
        grant = res.acquire()
        seen.append(sim.take(grant))
        try:
            seen.append((grant.processed, grant.value is grant,
                         sim.events_scheduled, sim.queued_events))
        finally:
            res.release(grant)
        yield sim.timeout(0.0)

    sim.spawn(proc())
    sim.run()
    assert seen == [True, (True, True, 2, 0)]
    assert res.in_use == 0


def test_take_declines_with_another_event_queued():
    sim = Simulator()
    res = PriorityResource(sim, capacity=1)
    seen = []

    def proc():
        sim.event().succeed()
        grant = res.acquire()
        seen.append(sim.take(grant))
        try:
            yield grant
        finally:
            res.release(grant)

    sim.spawn(proc())
    sim.run()
    assert seen == [False]


def test_take_declines_an_event_with_a_waiter():
    sim = Simulator()
    res = PriorityResource(sim, capacity=1)
    seen = []

    def proc():
        grant = res.acquire()
        try:
            grant.add_callback(lambda _event: None)
            seen.append(sim.take(grant))
            yield grant
        finally:
            res.release(grant)

    sim.spawn(proc())
    sim.run()
    assert seen == [False]


def test_take_declines_outside_run():
    sim = Simulator()
    res = PriorityResource(sim, capacity=1)
    grant = res.acquire()
    try:
        assert not sim.take(grant)
    finally:
        res.release(grant)


def test_killed_after_take_frees_the_slot():
    sim = Simulator()
    res = PriorityResource(sim, capacity=1)
    log = []

    def holder():
        yield sim.timeout(0.5)  # past the killer's bootstrap
        grant = res.acquire()
        log.append(sim.take(grant))
        try:
            yield sim.timeout(10.0)
        finally:
            res.release(grant)

    def killer(proc):
        yield sim.timeout(1.0)
        proc.kill()
        assert res.in_use == 0
        grant = res.acquire()
        try:
            yield grant
            log.append(sim.now)
        finally:
            res.release(grant)

    proc = sim.spawn(holder())
    proc.add_callback(lambda _event: None)  # joined: the kill is no crash
    sim.spawn(killer(proc))
    sim.run()
    assert log == [True, 1.0]
    assert isinstance(proc.exception, ProcessKilled)
    assert (res.in_use, res.queue_length) == (0, 0)
