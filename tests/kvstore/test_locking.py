"""Tests for the lock manager."""

import pytest

from repro.errors import KVStoreError, ProcessKilled
from repro.kvstore import LockManager
from repro.sim import Simulator


def test_uncontended_acquire_is_immediate():
    sim = Simulator()
    locks = LockManager(sim)

    def body():
        token = yield locks.acquire("dmt", owner="p0")
        assert locks.is_held("dmt")
        locks.release(token)
        assert not locks.is_held("dmt")
        return sim.now

    assert sim.run_process(body()) == 0.0


def test_contended_lock_fifo():
    sim = Simulator()
    locks = LockManager(sim)
    order = []

    def worker(ident, hold):
        token = yield locks.acquire("dmt", owner=str(ident))
        order.append((ident, sim.now))
        yield sim.timeout(hold)
        locks.release(token)

    def parent():
        yield sim.all_of([sim.spawn(worker(i, 1.0)) for i in range(3)])

    sim.run_process(parent())
    assert order == [(0, 0.0), (1, 1.0), (2, 2.0)]
    assert locks.contentions == 2


def test_independent_keys_do_not_contend():
    sim = Simulator()
    locks = LockManager(sim)
    times = []

    def worker(key):
        token = yield locks.acquire(key)
        yield sim.timeout(1.0)
        locks.release(token)
        times.append(sim.now)

    def parent():
        yield sim.all_of([sim.spawn(worker("a")), sim.spawn(worker("b"))])

    sim.run_process(parent())
    assert times == [1.0, 1.0]


def test_release_requires_ownership():
    sim = Simulator()
    locks = LockManager(sim)

    def body():
        token = yield locks.acquire("k")
        stranger = yield locks.acquire("other")
        with pytest.raises(KVStoreError):
            locks.release(type(token)("k", "forged"))
        locks.release(token)
        locks.release(stranger)

    sim.run_process(body())


def test_cancel_unknown_acquire_rejected():
    sim = Simulator()
    locks = LockManager(sim)
    with pytest.raises(KVStoreError):
        locks.cancel("k", sim.event())


def test_killed_lock_waiter_leaves_the_queue():
    sim = Simulator()
    locks = LockManager(sim)
    granted = []

    def worker(start, hold):
        yield sim.timeout(start)
        token = yield locks.acquire("dmt")
        try:
            granted.append(sim.now)
            yield sim.timeout(hold)
        finally:
            locks.release(token)

    sim.spawn(worker(0.0, 1.0))
    waiter = sim.spawn(worker(0.0, 1.0))
    late = sim.spawn(worker(5.0, 1.0))

    def killer():
        yield sim.timeout(0.5)
        waiter.kill()
        with pytest.raises(ProcessKilled):
            yield waiter

    sim.spawn(killer())
    sim.run()
    assert granted == [0.0, 5.0]
    assert not late.is_alive
    assert not locks.is_held("dmt") and locks.queue_length("dmt") == 0


def test_killed_before_delivery_passes_the_lock_on():
    sim = Simulator()
    locks = LockManager(sim)
    granted = []

    def worker(name):
        token = yield locks.acquire("dmt")
        try:
            granted.append((name, sim.now))
            yield sim.timeout(1.0)
        finally:
            locks.release(token)

    sim.spawn(worker("holder"))
    waiter = sim.spawn(worker("waiter"))
    sim.spawn(worker("third"))

    def killer():
        yield sim.timeout(1.0)
        yield sim.timeout(0.0)  # after the holder's release at t=1
        assert waiter.is_alive and locks.queue_length("dmt") == 1
        waiter.kill()
        with pytest.raises(ProcessKilled):
            yield waiter

    sim.spawn(killer())
    sim.run()
    assert granted == [("holder", 0.0), ("third", 1.0)]
    assert not locks.is_held("dmt")
