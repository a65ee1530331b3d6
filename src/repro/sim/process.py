"""Simulated processes: generator coroutines driven by the simulator.

A process body is a generator that yields :class:`~repro.sim.events.Event`
objects (timeouts, resource requests, other processes...).  The engine
resumes the generator with the event's value, or throws the event's
failure exception into it.

A :class:`Process` is itself an event that fires when the generator
returns, so processes can be joined by yielding them.
"""

from __future__ import annotations

import typing

from ..errors import ProcessKilled, SimulationError
from . import events
from .events import Event, _Frame

if typing.TYPE_CHECKING:  # pragma: no cover
    from .core import Simulator

ProcessBody = typing.Generator[Event, typing.Any, typing.Any]


class Process(Event):
    """A running simulated process.

    Yielding a Process from another process waits for it to finish and
    evaluates to its return value.  ``kill()`` throws
    :class:`~repro.errors.ProcessKilled` into the generator.
    """

    __slots__ = ("body", "name", "pid", "_waiting_on", "_started", "_presume")

    def __init__(self, sim: "Simulator", body: ProcessBody, name: str = ""):
        if not hasattr(body, "send"):
            raise SimulationError(
                f"Process body must be a generator, got {type(body).__name__}"
            )
        super().__init__(sim)
        self.body = body
        self.name = name or getattr(body, "__name__", "process")
        #: Monotonic spawn-order id; the deterministic identity used
        #: for crash bookkeeping (an ``id()`` key would vary by run).
        sim._next_pid = self.pid = sim._next_pid + 1
        self._waiting_on: Event | None = None
        self._started = False
        # One bound method for the process's whole life: every yield
        # registers this same object, instead of allocating a fresh
        # bound method per resume (the engine's hottest allocation).
        # It makes the process self-referential, so every completion
        # path clears it — otherwise no finished process would ever
        # die by refcount and the GC would carry the whole population.
        self._presume = self._resume
        # Kick off the generator at the current simulation time via an
        # immediately-processed bootstrap frame (add_callback + succeed
        # unrolled: the frame is fresh or pool-reset, so the fast paths
        # always apply).  Frames recycle through the simulator's frame
        # pool — the run loop reclaims them right after the bootstrap
        # resume, so process-heavy fan-outs reuse a few dozen objects.
        pool = sim._frame_pool
        if pool:
            bootstrap = pool.pop()
        else:
            bootstrap = _Frame(sim)
            bootstrap._triggered = True
        bootstrap._cb0 = self._presume
        sim._seq = bootstrap._qseq = sim._seq + 1
        sim._runq.append(bootstrap)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    def kill(self, reason: str = "") -> None:
        """Throw :class:`ProcessKilled` into the process at the current time."""
        if self.triggered:
            return
        if not self._started:
            # The generator never ran; there is no frame to throw into.
            self.body.close()
            self._presume = None
            self.succeed(None)
            return
        self._throw_in(ProcessKilled(reason or f"process {self.name} killed"))

    # -- engine plumbing -------------------------------------------------
    def _resume(self, event: Event) -> None:
        """Advance the generator with the fired event's outcome.

        This is the engine's hottest function (it runs once per yield
        of every process), hence the direct slot reads instead of the
        public properties.
        """
        if self._triggered:
            # The process was killed while waiting on this event; the
            # event's late firing must not resurrect the generator.
            return
        self._waiting_on = None
        sim = self.sim
        sim._active_process = self
        try:
            if event._exc is None:
                # The first resume is the bootstrap event, whose value
                # is None — exactly what a fresh generator requires.
                target = self.body.send(event._value)
            else:
                target = self.body.throw(event._exc)
        except StopIteration as stop:
            self._presume = None
            self.succeed(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - propagate as failure
            self._fail_with(exc)
            return
        finally:
            sim._active_process = None
        self._started = True
        if isinstance(target, Event) and target.sim is sim:
            self._waiting_on = target
            # Inlined add_callback() fast path: first waiter on a
            # not-yet-processed event (the overwhelmingly common case).
            if target._cb0 is None and not target._processed:
                target._cb0 = self._presume
            else:
                target.add_callback(self._presume)
        elif isinstance(target, Event):
            self._throw_in(
                SimulationError(f"process {self.name} yielded a foreign event")
            )
        else:
            self._throw_in(
                SimulationError(
                    f"process {self.name} yielded {target!r}; expected an Event"
                )
            )

    def _throw_in(self, exc: BaseException) -> None:
        """Inject an exception into the generator right now."""
        self.sim._active_process = self
        try:
            self.body.throw(exc)
        except StopIteration as stop:
            self._presume = None
            self.succeed(stop.value)
        except BaseException as err:  # noqa: BLE001
            self._fail_with(err)
        else:
            # The generator swallowed the exception and yielded again;
            # that is not supported for kill semantics.
            self._fail_with(
                SimulationError(f"process {self.name} ignored injected exception")
            )
        finally:
            self.sim._active_process = None

    def _fail_with(self, exc: BaseException) -> None:
        """Record generator failure; escalate if nobody is joining us.

        A :class:`ProcessKilled` loses its traceback here.  The engine
        frame that caught it (``_throw_in``, ``_resume`` or the run
        loop) holds both this process and the exception, so keeping
        the traceback would tie the killed process, its generator
        frames and its sub-flows into a cycle that only the garbage
        collector could free.  A kill is a deliberate stop, not a
        crash; every other exception keeps its traceback for the crash
        report.
        """
        self._presume = None
        if isinstance(exc, ProcessKilled):
            exc.__traceback__ = None
        self.fail(exc)
        self.sim._note_crash(self, exc)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "done" if self.triggered else "alive"
        return f"<Process {self.name} {state}>"


# Tell the event module which callback marks a Timeout as poolable
# (assigned here to avoid an import cycle; see events._RESUME).
events._RESUME = Process._resume
