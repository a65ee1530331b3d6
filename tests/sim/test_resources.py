"""Unit tests for PriorityResource."""

import gc

import pytest

from repro.errors import ProcessKilled, SimulationError
from repro.sim import PriorityResource, Simulator
from repro.sim.resources import PRIORITY_LOW, PRIORITY_NORMAL

from ..gcutil import collector, cyclic_garbage


def test_resource_serialises_access():
    sim = Simulator()
    res = PriorityResource(sim, capacity=1)
    log = []

    def user(ident):
        grant = yield res.acquire()
        log.append(("start", ident, sim.now))
        yield sim.timeout(2.0)
        res.release(grant)
        log.append(("end", ident, sim.now))

    def parent():
        yield sim.all_of([sim.spawn(user(i)) for i in range(3)])

    sim.run_process(parent())
    assert log == [
        ("start", 0, 0.0), ("end", 0, 2.0),
        ("start", 1, 2.0), ("end", 1, 4.0),
        ("start", 2, 4.0), ("end", 2, 6.0),
    ]


def test_resource_capacity_allows_parallelism():
    sim = Simulator()
    res = PriorityResource(sim, capacity=2)

    def user():
        grant = yield res.acquire()
        yield sim.timeout(2.0)
        res.release(grant)

    def parent():
        yield sim.all_of([sim.spawn(user()) for _ in range(4)])

    sim.run_process(parent())
    assert sim.now == 4.0  # two waves of two, not four serial


def test_low_priority_waits_for_normal():
    sim = Simulator()
    res = PriorityResource(sim, capacity=1)
    order = []

    def holder():
        grant = yield res.acquire()
        yield sim.timeout(1.0)
        res.release(grant)

    def low():
        grant = yield res.acquire(priority=PRIORITY_LOW)
        order.append("low")
        res.release(grant)

    def normal():
        # Arrives *after* low, but must be served first.
        yield sim.timeout(0.5)
        grant = yield res.acquire(priority=PRIORITY_NORMAL)
        order.append("normal")
        res.release(grant)

    def parent():
        hold = sim.spawn(holder())
        lo = sim.spawn(low())
        no = sim.spawn(normal())
        yield sim.all_of([hold, lo, no])

    sim.run_process(parent())
    assert order == ["normal", "low"]


def test_fifo_within_same_priority():
    sim = Simulator()
    res = PriorityResource(sim, capacity=1)
    order = []

    def user(ident):
        grant = yield res.acquire()
        order.append(ident)
        yield sim.timeout(1.0)
        res.release(grant)

    def parent():
        yield sim.all_of([sim.spawn(user(i)) for i in range(5)])

    sim.run_process(parent())
    assert order == [0, 1, 2, 3, 4]


def test_double_release_rejected():
    sim = Simulator()
    res = PriorityResource(sim, capacity=1)

    def body():
        grant = yield res.acquire()
        res.release(grant)
        with pytest.raises(SimulationError):
            res.release(grant)

    sim.run_process(body())


def test_release_wrong_resource_rejected():
    sim = Simulator()
    res_a = PriorityResource(sim, capacity=1)
    res_b = PriorityResource(sim, capacity=1)

    def body():
        grant = yield res_a.acquire()
        with pytest.raises(SimulationError):
            res_b.release(grant)
        res_a.release(grant)

    sim.run_process(body())


def test_resource_bad_capacity():
    sim = Simulator()
    with pytest.raises(SimulationError):
        PriorityResource(sim, capacity=0)


def test_queue_length_tracks_waiters():
    sim = Simulator()
    res = PriorityResource(sim, capacity=1)

    def holder():
        grant = yield res.acquire()
        yield sim.timeout(10.0)
        res.release(grant)

    def waiter():
        grant = yield res.acquire()
        res.release(grant)

    def parent():
        procs = [sim.spawn(holder())] + [sim.spawn(waiter()) for _ in range(3)]
        yield sim.timeout(1.0)
        assert res.queue_length == 3
        assert res.in_use == 1
        yield sim.all_of(procs)

    sim.run_process(parent())


def test_grants_released_past_a_full_pool_leave_no_cycles():
    # 200 holders of a capacity-100 resource release 200 grants, more
    # than its grant pool keeps; the rest must die by reference count.
    sim = Simulator()
    res = PriorityResource(sim, capacity=100)

    def holder():
        grant = yield res.acquire()
        try:
            yield sim.timeout(1.0)
        finally:
            res.release(grant)

    for _ in range(200):
        sim.spawn(holder())
    gc.collect()
    with collector(False):
        sim.run()
        assert cyclic_garbage() == {}
    assert sim.now == 2.0


# -- kills withdraw the wait ----------------------------------------------
def _kill_and_join(sim, victim, at):
    """A process that kills ``victim`` at time ``at`` and joins it."""
    yield sim.timeout(at)
    victim.kill()
    with pytest.raises(ProcessKilled):
        yield victim


def test_killed_resource_waiter_leaves_the_queue():
    sim = Simulator()
    res = PriorityResource(sim, capacity=1)
    served = []

    def user(start, hold):
        yield sim.timeout(start)
        grant = yield res.acquire()
        try:
            served.append(sim.now)
            yield sim.timeout(hold)
        finally:
            res.release(grant)

    sim.spawn(user(0.0, 1.0))
    waiter = sim.spawn(user(0.0, 1.0))
    late = sim.spawn(user(5.0, 1.0))
    sim.spawn(_kill_and_join(sim, waiter, 0.5))
    sim.run()
    assert served == [0.0, 5.0]
    assert not late.is_alive
    assert (res.in_use, res.queue_length) == (0, 0)


def test_killed_before_delivery_passes_the_grant_on():
    # The holder releases at t=1 and hands the slot to the waiter; the
    # waiter is killed in the same instant, before the grant reaches it.
    sim = Simulator()
    res = PriorityResource(sim, capacity=1)
    served = []

    def user(name, hold):
        grant = yield res.acquire()
        try:
            served.append((name, sim.now))
            yield sim.timeout(hold)
        finally:
            res.release(grant)

    sim.spawn(user("holder", 1.0))
    waiter = sim.spawn(user("waiter", 1.0))
    sim.spawn(user("third", 1.0))

    def killer():
        yield sim.timeout(1.0)
        yield sim.timeout(0.0)  # after the holder's release at t=1
        assert waiter.is_alive and res.queue_length == 1
        waiter.kill()
        with pytest.raises(ProcessKilled):
            yield waiter

    sim.spawn(killer())
    gc.collect()
    with collector(False):
        sim.run()
        assert cyclic_garbage() == {}
    assert served == [("holder", 0.0), ("third", 1.0)]
    assert (res.in_use, res.queue_length) == (0, 0)

