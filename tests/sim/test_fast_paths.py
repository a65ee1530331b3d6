"""Regression tests for the event-engine fast paths.

The zero-delay run-queue, the Timeout free pool and the inlined
run-loop dispatch are pure optimisations: they must preserve the exact
event ordering and value semantics of the straightforward heap-only
engine.  These tests pin down the contracts the optimisations rely on.
"""

from repro.sim import Simulator
from repro.sim.events import Timeout


# ---------------------------------------------------------------------------
# zero-delay fast lane
# ---------------------------------------------------------------------------

def test_zero_delay_events_fire_in_trigger_order():
    sim = Simulator()
    order = []
    events = [sim.event() for _ in range(5)]
    for i, ev in enumerate(events):
        ev.add_callback(lambda e, i=i: order.append(i))
    # Trigger out of creation order: processing must follow trigger order.
    for i in (2, 0, 4, 1, 3):
        events[i].succeed(i)
    sim.run()
    assert order == [2, 0, 4, 1, 3]


def test_zero_delay_interleaves_with_due_heap_events():
    """A heap event scheduled for *now* fires before later-triggered
    zero-delay events (global schedule order, not queue priority)."""
    sim = Simulator()
    order = []

    def proc():
        order.append("t0")
        yield sim.timeout(1.0)
        order.append("t1")
        # Zero-delay timeout and an immediate succeed compete at t=1.
        yield sim.timeout(0.0)
        order.append("t1-zero")

    def other():
        yield sim.timeout(1.0)
        order.append("other-t1")

    sim.spawn(proc())
    sim.spawn(other())
    sim.run()
    assert order == ["t0", "t1", "other-t1", "t1-zero"]
    assert sim.now == 1.0


def test_zero_delay_chain_does_not_advance_time():
    sim = Simulator()
    hops = []

    def chain():
        for i in range(100):
            yield sim.timeout(0.0)
            hops.append(sim.now)

    sim.spawn(chain())
    sim.run()
    assert hops == [0.0] * 100


# ---------------------------------------------------------------------------
# Timeout pooling
# ---------------------------------------------------------------------------

def test_plain_timeouts_are_recycled():
    sim = Simulator()
    seen = []

    def proc():
        for _ in range(3):
            yield sim.timeout(0.5)
            seen.append(sim.now)

    sim.spawn(proc())
    sim.run()
    assert seen == [0.5, 1.0, 1.5]
    # The pool captured the plain yielded timeouts for reuse.
    assert len(sim._timeout_pool) >= 1


def test_pooled_timeout_reuse_delivers_fresh_values():
    sim = Simulator()
    values = []

    def proc():
        got = yield sim.timeout(0.1, value="first")
        values.append(got)
        got = yield sim.timeout(0.2, value="second")
        values.append(got)

    sim.spawn(proc())
    sim.run()
    assert values == ["first", "second"]


def test_timeouts_in_composite_waits_are_not_pooled():
    """all_of membership adds extra callbacks; such timeouts must never
    enter the free pool (a pooled rearm would corrupt the composite's
    child list)."""
    sim = Simulator()
    joined = []

    def joiner(children):
        joined.append((yield sim.all_of(children)))

    def proc():
        fast = sim.timeout(0.1, value="fast")
        slow = sim.timeout(5.0, value="slow")
        sim.spawn(joiner([fast, slow]))
        # ``fast`` has two callbacks: this resume and the all_of watcher.
        got = yield fast
        assert got == "fast"
        yield sim.timeout(0.5)  # ``fast``'s dispatch has fully finished
        # The composite still holds ``fast``: it must not be pooled, and
        # fresh timeouts must not rearm it.  Its other child is still
        # pending and must stay valid.
        assert fast not in sim._timeout_pool
        assert all(sim.timeout(1.0) is not fast for _ in range(2))
        assert not slow.processed
        got = yield slow
        assert got == "slow"

    sim.spawn(proc())
    sim.run()
    assert joined == [["fast", "slow"]]
    assert not sim._timeout_pool or all(
        isinstance(t, Timeout) and t._cb0 is None and t._callbacks is None
        for t in sim._timeout_pool
    )


def test_held_timeout_state_is_read_back_before_reuse():
    sim = Simulator()
    states = []

    def proc():
        t = sim.timeout(1.0, value="v")
        got = yield t
        # Reading the completed timeout immediately after the yield is
        # inside the contract (reuse can only happen at the *next*
        # sim.timeout call).
        states.append((got, t.processed, t.ok))

    sim.spawn(proc())
    sim.run()
    assert states == [("v", True, True)]


# ---------------------------------------------------------------------------
# AllOf value order
# ---------------------------------------------------------------------------

def test_all_of_collects_values_in_child_order():
    sim = Simulator()
    results = []

    def proc():
        events = [sim.timeout(2.0, "a"), sim.timeout(1.0, "b")]
        results.append((yield sim.all_of(events)))

    sim.spawn(proc())
    sim.run()
    assert results == [["a", "b"]]
    assert sim.now == 2.0
