"""Property tests: the engine's pop stream against a sorted-list oracle.

The timed queue's contract is plain: every scheduled timer fires at
``now + delay`` in ``(time, seq)`` order, run-queue and heap merged, and
a cancelled positive-delay timer never fires and never moves the clock.
These tests drive randomised operation sequences (hypothesis) plus the
known-nasty shapes (timer storms, far-future timers, the lost-event
regression) through the engine and through a plain sorted list of
``(now + delay, seq)`` rows, and compare the two pop streams.
"""

import bisect

import pytest

from repro.sim import Simulator

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


def drive(ops):
    """Apply an op sequence to a fresh simulator; return the pop stream.

    Ops: ``("t", delay)`` schedules a timeout; ``("c", i)`` cancels the
    i-th (mod len) not-yet-fired timer scheduled so far; ``("p", n)``
    pops up to n events.  Whatever remains is drained at the end.
    """
    sim = Simulator()
    scheduled = []
    popped = []
    count = 0

    def pop_one():
        ev = sim._pop_merged()
        if ev is None:
            return False
        popped.append((sim.now, ev._value))
        ev._process()
        return True

    for op in ops:
        kind, arg = op
        if kind == "t":
            scheduled.append(sim.timeout(arg, value=count))
            count += 1
        elif kind == "c" and scheduled:
            ev = scheduled[arg % len(scheduled)]
            if not ev.processed:
                sim.cancel(ev)
        elif kind == "p":
            for _ in range(arg):
                if not pop_one():
                    break
    while pop_one():
        pass
    return popped


def oracle(ops):
    """The same op sequence against a sorted list of ``(when, seq)`` rows.

    ``cancel`` removes positive-delay rows only: zero-delay events sit
    in the run queue, which :meth:`Simulator.cancel` documents as
    never skipped.
    """
    now = 0.0
    rows = []
    scheduled = []
    popped = []

    def pop_one():
        nonlocal now
        if not rows:
            return False
        now, seq = rows.pop(0)
        popped.append((now, seq))
        return True

    for kind, arg in ops:
        if kind == "t":
            row = (now + arg, len(scheduled))
            bisect.insort(rows, row)
            scheduled.append((row, arg))
        elif kind == "c" and scheduled:
            row, delay = scheduled[arg % len(scheduled)]
            if delay > 0 and row in rows:
                rows.remove(row)
        elif kind == "p":
            for _ in range(arg):
                if not pop_one():
                    break
    while pop_one():
        pass
    return popped


def assert_matches_oracle(ops):
    assert drive(ops) == oracle(ops)


#: Zero, sub-100 us, sub-second and far-future (up to 500 s) delays
#: all occur in one sequence.
_DELAYS = st.one_of(
    st.floats(min_value=0.0, max_value=1e-4,
              allow_nan=False, allow_infinity=False),
    st.floats(min_value=0.0, max_value=1.0,
              allow_nan=False, allow_infinity=False),
    st.floats(min_value=0.0, max_value=500.0,
              allow_nan=False, allow_infinity=False),
)

_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("t"), _DELAYS),
        st.tuples(st.just("c"), st.integers(min_value=0, max_value=63)),
        st.tuples(st.just("p"), st.integers(min_value=1, max_value=8)),
    ),
    min_size=3,
    max_size=60,
)


@settings(max_examples=80, deadline=None)
@given(ops=_OPS)
def test_random_schedule_cancel_pop_streams_identical(ops):
    assert_matches_oracle(ops)


def test_lost_event_regression():
    """The minimal sequence that once lost an event: a far-future
    timeout is cancelled and lazily skipped *without advancing the
    clock*, and a subsequent near-term timeout must still fire."""
    assert_matches_oracle([
        ("t", 454.387), ("c", 0), ("p", 7), ("t", 0.347),
    ])


def test_timer_storm_identical():
    # Thousands of pending timers across every delay regime, popped in
    # interleaved bursts.
    ops = []
    for i in range(2000):
        ops.append(("t", (i * 37 % 1000) * 1.7e-6))
        if i % 3 == 0:
            ops.append(("t", (i * 101 % 97) * 0.11))
        if i % 7 == 0:
            ops.append(("p", 4))
        if i % 11 == 0:
            ops.append(("c", i * 13))
    assert_matches_oracle(ops)


def test_far_future_overflow_identical():
    # Hundreds of far-future timers, some cancelled and half popped,
    # then near-term timers armed from the advanced clock.
    ops = [("t", 100.0 + (i * 57 % 113) * 3.3) for i in range(300)]
    ops += [("c", i * 7) for i in range(40)]
    ops.append(("p", 100))
    ops += [("t", (i * 29 % 41) * 0.01) for i in range(50)]
    assert_matches_oracle(ops)


def test_compaction_matches_oracle():
    # Enough cancels to compact the heap several times between pops.
    ops = [("t", (i * 37 % 101) * 0.01) for i in range(400)]
    for i in range(300):
        ops.append(("c", i * 7))
        if i % 50 == 0:
            ops.append(("p", 3))
    ops += [("t", (i * 29 % 41) * 0.01) for i in range(50)]
    assert_matches_oracle(ops)
