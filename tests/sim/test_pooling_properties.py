"""Differential property tests: pooled engine ≡ unpooled engine.

The engine recycles Timeouts, process bootstrap frames, generic
events and resource grants through free pools (PR: allocation-plane
overhaul), with a hard contract: pooling is invisible — for any
workload, ``Simulator(pooling=True)`` and ``Simulator(pooling=False)``
produce the *same* pop/dispatch stream (same clock values, same
payloads, same order), and a recycled object can never leak state
from its previous life.  These tests drive randomised schedule /
cancel / kill storms through both configurations and compare streams,
plus direct stale-reuse regression checks.
"""

import pytest

from repro.errors import ProcessKilled
from repro.sim import PriorityResource, Simulator
from repro.sim.resources import PRIORITY_LOW, PRIORITY_NORMAL

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402


def run_storm(pooling, plan):
    """Run a schedule/cancel/kill storm; return the observation stream.

    ``plan`` is a list of per-worker op tuples; every observable step
    appends ``(sim.now, worker, op_index, payload)``.  The stream is a
    pure function of the plan — pooling must not show.
    """
    sim = Simulator(seed=11, pooling=pooling)
    device = PriorityResource(sim, capacity=2, name="dev")
    out = []
    procs = {}

    def worker(w, ops):
        try:
            yield from worker_body(w, ops)
        except ProcessKilled:
            out.append((sim.now, w, "killed-at", None))

    def worker_body(w, ops):
        for i, (kind, arg) in enumerate(ops):
            if kind == "t":
                got = yield sim.timeout(arg, value=(w, i))
                out.append((sim.now, w, i, got))
            elif kind == "t0":
                got = yield sim.timeout(0.0, value=(w, i))
                out.append((sim.now, w, i, got))
            elif kind == "ev":
                ev = sim.event()
                ev.succeed((w, i), delay=arg)
                got = yield ev
                out.append((sim.now, w, i, got))
            elif kind == "res":
                grant = yield device.acquire(
                    priority=PRIORITY_LOW if arg > 0.5e-5 else PRIORITY_NORMAL
                )
                try:
                    yield sim.timeout(arg)
                finally:
                    device.release(grant)
                out.append((sim.now, w, i, "released"))
            elif kind == "kill":
                victim = procs.get(arg % max(1, len(procs)))
                if victim is not None and victim is not procs[w] and victim.is_alive:
                    victim.kill()
                    out.append((sim.now, w, i, "killed"))
                yield sim.timeout(1e-7)
        out.append((sim.now, w, "done", None))

    for w, ops in enumerate(plan):
        procs[w] = sim.spawn(worker(w, ops), name=f"w{w}")
    sim.run()
    # Every worker finished, so no slot may stay claimed: a kill that
    # lands on a queued or handed-over grant must give it back.
    assert (device.in_use, device.queue_length) == (0, 0)
    return out


_STORM_OP = st.one_of(
    st.tuples(st.just("t"), st.floats(min_value=1e-7, max_value=1e-3,
                                      allow_nan=False)),
    st.tuples(st.just("t0"), st.just(0.0)),
    st.tuples(st.just("ev"), st.sampled_from([0.0, 1e-6, 3e-5])),
    st.tuples(st.just("res"), st.floats(min_value=1e-7, max_value=1e-5,
                                        allow_nan=False)),
    st.tuples(st.just("kill"), st.integers(min_value=0, max_value=7)),
)

_PLAN = st.lists(
    st.lists(_STORM_OP, min_size=1, max_size=10),
    min_size=1, max_size=6,
)


@settings(max_examples=40, deadline=None)
@given(plan=_PLAN)
# Worker 4 kills worker 2 while worker 2's uncontended grant is handed
# over but not yet delivered.
@example(plan=[[("t", 0.001)], [("t", 1e-07)], [("t", 1e-07), ("res", 1e-07)],
               [("t", 1e-07)], [("t", 1e-07), ("kill", 7)]])
def test_pooled_equals_unpooled_random_storms(plan):
    assert run_storm(True, plan) == run_storm(False, plan)


def test_pooled_equals_unpooled_cancel_storm():
    """Timer storm with cancellations: recycled timeouts must not
    resurrect cancelled entries or reorder survivors."""

    def stream(pooling):
        sim = Simulator(seed=5, pooling=pooling)
        fired = []
        timers = [sim.timeout((i * 37 % 113 + 1) * 1e-6, value=i)
                  for i in range(400)]
        for i in range(0, 400, 3):
            sim.cancel(timers[i])

        def watcher():
            for t in timers:
                if not t.processed:
                    try:
                        got = yield t
                    except Exception:  # pragma: no cover - cancelled
                        continue
                    fired.append((sim.now, got))

        sim.spawn(watcher())
        sim.run()
        return fired

    assert stream(True) == stream(False)


# -- stale-reuse regression -----------------------------------------------
def test_recycled_event_leaks_no_payload():
    """A recycled generic Event must come back with a clean payload:
    untriggered, value None, no callbacks, no exception."""
    sim = Simulator(seed=0)
    seen = []

    def producer():
        for i in range(8):
            ev = sim.event()
            seen.append(ev)
            ev.succeed({"secret": i})
            yield ev

    sim.run_process(producer())
    assert sim._event_pool, "recycle path never engaged"
    fresh = sim.event()
    # The pool hands back one of the dispatched events...
    assert any(fresh is ev for ev in seen)
    # ...but with every trace of its previous life cleared.
    assert fresh._value is None
    assert fresh._cb0 is None and fresh._callbacks is None
    assert fresh._exc is None
    assert not fresh.triggered and not fresh.processed


def test_recycled_timeout_leaks_no_payload():
    sim = Simulator(seed=0)
    got = []

    def body():
        got.append((yield sim.timeout(1e-6, value="secret")))
        got.append((yield sim.timeout(1e-6)))  # reuses the pooled one

    sim.run_process(body())
    assert got == ["secret", None]


def test_recycled_grant_is_inert():
    """A processed-and-released grant returns to the pool with its
    self-referential value broken and re-arms cleanly."""
    sim = Simulator(seed=0)
    device = PriorityResource(sim, capacity=1)
    grants = []

    def body():
        for _ in range(3):
            g = yield device.acquire()
            grants.append(g)
            try:
                yield sim.timeout(1e-6)
            finally:
                device.release(g)

    sim.run_process(body())
    assert device._grant_pool
    pooled = device._grant_pool[-1]
    assert pooled._value is None and pooled._cb0 is None
    # The three acquisitions reused one object (capacity-1 round trip).
    assert len(set(map(id, grants))) == 1


def test_multi_waiter_event_not_pooled():
    """An event with a second callback (a second waiting process, an
    all_of watcher) must never be recycled — the extra waiters may
    still read it."""
    sim = Simulator(seed=0)
    ev = sim.event()
    seen = []

    def waiter(name):
        seen.append((name, (yield ev)))
        assert ev._value == "winner"  # still readable, not in pool
        assert ev not in sim._event_pool

    def watcher():
        seen.append(("all_of", (yield sim.all_of([ev, sim.timeout(1.0)]))))
        assert ev._value == "winner"

    sim.spawn(waiter("first"))
    sim.spawn(waiter("second"))
    sim.spawn(watcher())
    ev.succeed("winner")
    sim.run()
    assert seen == [("first", "winner"), ("second", "winner"),
                    ("all_of", ["winner", None])]
    assert ev not in sim._event_pool


def test_pooling_off_never_pools():
    sim = Simulator(seed=0, pooling=False)

    def body():
        for i in range(5):
            ev = sim.event()
            ev.succeed(i)
            yield ev
            yield sim.timeout(1e-6)

    sim.run_process(body())
    assert sim._event_pool == []
    assert sim._timeout_pool == []
    assert sim._frame_pool == []
