"""Event primitives for the simulation engine.

An :class:`Event` is a one-shot occurrence at a point in simulated time.
Processes wait on events by yielding them; the simulator resumes the
process with the event's value once it has been *triggered* and then
*processed* (its callbacks run).

Composite events :class:`AllOf` and :class:`AnyOf` let a process wait on
several events at once.

Hot-path notes (the engine processes hundreds of thousands of events
per simulated second of an S4D run):

- The overwhelmingly common case is exactly **one** callback per event
  (a process resume), so the first callback lives in a dedicated
  ``_cb0`` slot and the spill list is only allocated for the rare
  multi-waiter event.
- The engine recycles event objects through free pools on the
  :class:`~repro.sim.core.Simulator`.  The contract is uniform:
  an event whose **sole consumer was a process resume** (the plain
  ``yield`` idiom — exactly one waiter, no extra callbacks, no
  failure) is dead the moment its value was delivered, and the run
  loop reclaims it.  This covers :class:`Timeout` (the plain
  ``yield sim.timeout(x)`` idiom), process bootstrap frames, generic
  ``sim.event()`` events, and resource grants (recycled by
  ``release``).  Holding a yielded event across later yields and
  re-reading it is outside that contract; composite waits via
  ``any_of``/``all_of`` are safe — their watcher callbacks disqualify
  the event from pooling.  Recycling clears the payload (``_value``)
  so a pooled object can never leak state into its next life, and
  ``Simulator(pooling=False)`` turns every pool off for differential
  testing.
"""

from __future__ import annotations

import typing

from ..errors import SimulationError

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .core import Simulator

Callback = typing.Callable[["Event"], None]

#: Set by :mod:`repro.sim.process` to ``Process._resume`` — the one
#: callback that marks a Timeout as safely poolable.  Wired at import
#: time to avoid an import cycle.
_RESUME: typing.Any = None


class Event:
    """A one-shot simulation event.

    Life cycle: *pending* -> *triggered* (``succeed``/``fail`` called,
    scheduled on the event queue) -> *processed* (callbacks executed at
    the trigger time).
    """

    __slots__ = (
        "sim",
        "_cb0",
        "_callbacks",
        "_value",
        "_exc",
        "_triggered",
        "_processed",
        "_had_joiners",
        # Schedule order within the zero-delay run-queue; written by the
        # scheduler when the event enters the queue (left unset before
        # then — it has no meaning for an unscheduled event).
        "_qseq",
    )

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self._cb0: Callback | None = None
        self._callbacks: list[Callback] | None = None
        self._value: typing.Any = None
        self._exc: BaseException | None = None
        self._triggered = False
        self._processed = False
        self._had_joiners = False

    # -- state ---------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once ``succeed``/``fail`` was called."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once callbacks have run (the event is fully in the past)."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._triggered and self._exc is None

    @property
    def value(self) -> typing.Any:
        """The success value (or raises the failure exception)."""
        if not self._triggered:
            raise SimulationError("event value read before trigger")
        if self._exc is not None:
            raise self._exc
        return self._value

    @property
    def exception(self) -> BaseException | None:
        """The failure exception, or None."""
        return self._exc

    # -- triggering ----------------------------------------------------
    def succeed(self, value: typing.Any = None, delay: float = 0.0) -> "Event":
        """Trigger the event successfully after ``delay`` sim-seconds."""
        if self._triggered:
            raise SimulationError("event already triggered")
        self._triggered = True
        self._value = value
        sim = self.sim
        if delay == 0.0:
            # Inlined zero-delay schedule: the dominant case by far.
            sim._seq = self._qseq = sim._seq + 1
            sim._runq.append(self)
        else:
            sim._schedule(self, delay)
        return self

    def fail(self, exc: BaseException, delay: float = 0.0) -> "Event":
        """Trigger the event as failed; waiters will see ``exc`` raised."""
        if self._triggered:
            raise SimulationError("event already triggered")
        if not isinstance(exc, BaseException):
            raise SimulationError(f"fail() needs an exception, got {exc!r}")
        self._triggered = True
        self._exc = exc
        self.sim._schedule(self, delay)
        return self

    # -- callbacks -----------------------------------------------------
    def add_callback(self, callback: Callback) -> None:
        """Run ``callback(event)`` when the event is processed.

        If the event was already processed the callback runs immediately
        (synchronously), which keeps waiter logic simple.
        """
        if self._processed:
            callback(self)
        elif self._cb0 is None:
            self._cb0 = callback
        elif self._callbacks is None:
            self._callbacks = [callback]
        else:
            self._callbacks.append(callback)

    def _process(self) -> None:
        """Run callbacks; called by the simulator at the trigger time."""
        self._processed = True
        cb0, self._cb0 = self._cb0, None
        self._had_joiners = cb0 is not None
        if cb0 is not None:
            callbacks, self._callbacks = self._callbacks, None
            cb0(self)
            if callbacks is not None:
                for callback in callbacks:
                    callback(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "processed" if self._processed else (
            "triggered" if self._triggered else "pending")
        return f"<{type(self).__name__} {state} at t={self.sim.now:.6g}>"


class Timeout(Event):
    """An event that fires ``delay`` sim-seconds after creation.

    Create through :meth:`Simulator.timeout`, which recycles instances
    from a free pool when possible (see the module docstring for the
    pooling contract).
    """

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: typing.Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        super().__init__(sim)
        self.delay = delay
        self._triggered = True
        self._value = value
        sim._schedule(self, delay)


class _Frame(Event):
    """A process bootstrap event (engine-internal).

    Dedicated subclass so the run loop can recognise bootstraps by
    class and recycle them through the simulator's frame pool: nothing
    outside :class:`~repro.sim.process.Process.__init__` ever holds a
    reference, so the instance is free the moment its resume ran.
    Pooled frames keep ``_triggered = True`` and ``_value = None`` for
    life (a bootstrap resume always sends None).
    """

    __slots__ = ()


class _Condition(Event):
    """Base for AllOf/AnyOf: waits on a set of child events."""

    __slots__ = ("events", "_pending")

    def __init__(self, sim: "Simulator", events: typing.Sequence[Event]):
        super().__init__(sim)
        self.events = list(events)
        self._pending = len(self.events)
        if not self.events:
            self.succeed(self._collect())
            return
        self._watch()

    def _watch(self) -> None:
        # One bound method for all children (not one per add_callback
        # call), with the first-waiter registration fast path inlined.
        on_child = self._on_child
        for event in self.events:
            if event._cb0 is None and not event._processed:
                event._cb0 = on_child
            else:
                event.add_callback(on_child)

    def _collect(self) -> list[typing.Any]:
        return [e._value for e in self.events if e.processed and e.ok]

    def _on_child(self, event: Event) -> None:
        raise NotImplementedError


class AllOf(_Condition):
    """Fires once *all* child events processed; value is the value list.

    Fails immediately (with the child's exception) if any child fails.
    """

    __slots__ = ()

    def _on_child(self, event: Event) -> None:
        if self._triggered:
            return
        if not event.ok:
            assert event.exception is not None
            self.fail(event.exception)
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed([e._value for e in self.events])


class AnyOf(_Condition):
    """Fires when the *first* child event is processed.

    Value is a ``(index, value)`` tuple of the winning child.  Each
    watcher callback carries its child's index, so the winner is known
    without an O(n) ``list.index`` scan at fire time.
    """

    __slots__ = ()

    def _watch(self) -> None:
        for index, event in enumerate(self.events):
            event.add_callback(
                lambda e, _i=index: self._on_child_at(_i, e)
            )

    def _on_child_at(self, index: int, event: Event) -> None:
        if self._triggered:
            return
        if not event.ok:
            assert event.exception is not None
            self.fail(event.exception)
            return
        self.succeed((index, event._value))
