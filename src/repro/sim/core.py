"""The simulator: event queue, clock and run loop.

Engine layout (the hot path of every experiment in the repo):

- Events with a positive delay live in the *timed queue*: a binary
  heap of ``(time, seq, event)`` tuples, so pops follow the
  ``(time, seq)`` total order (``heapq`` requires tuple entries; the
  engine counts them in :attr:`Simulator.timed_entry_tuples` so
  allocation receipts stay honest).
- Zero-delay events — the majority in a typical run: resource grants,
  store hand-offs, completion notifications, process bootstraps — go
  to a FIFO *run-queue* instead, costing O(1) to schedule and pop.
- The two structures are merged by ``(time, seq)`` at pop time, so
  global event order is **identical** to a single heap: events
  scheduled for the same time still fire in schedule order.  (All
  run-queue entries carry the current clock as their timestamp — the
  clock cannot advance while the run-queue is non-empty — so the merge
  only ever compares sequence numbers at one timestamp.)  The run
  loop caches the merge verdict: while the heap's front lies in the
  future (``_timed_ready`` False) a run-queue pop is one ``popleft``
  with no heap probes at all; only scheduling an entry at or before
  ``now`` (possible via float rounding) re-arms the check.
- :meth:`Simulator.cancel` drops timed entries lazily and compacts
  them out, in place, once they dominate the heap.
- The engine recycles its per-event objects through free pools on the
  simulator: plain ``yield sim.timeout(x)`` timeouts, process
  bootstrap frames, and generic ``sim.event()`` events whose sole
  consumer was a process resume (see :mod:`repro.sim.events` for the
  pooling contract).  ``Simulator(pooling=False)`` disables every pool
  for differential testing.
- :meth:`Simulator.gather` is the request path's fan-out.  A lone
  body, the common case, runs inline in its caller with no Process,
  bootstrap frame or AllOf, but it keeps the three zero-delay hops a
  spawned flow takes (bootstrap, completion, the AllOf's).  Every
  event keeps its sequence number, so the schedule and
  ``events_scheduled`` are those of spawn + ``all_of``; a hop is
  dispatched only when another event is ready (see below).
- *Inline continuation.*  A process about to wait on the event the
  loop would dispatch next anyway, resuming exactly that process,
  continues without the round trip (:meth:`Simulator.advance` for a
  timeout, :meth:`Simulator.take` for a fresh grant or lock request).
  The skipped event keeps its sequence number, so the schedule and
  every clock value are the round trip's.  The request path waits
  through them.
- :meth:`Simulator.run` switches Python's cyclic garbage collector off
  while its loop runs and restores the caller's setting on exit.  The
  engine and the campaign request path create no reference cycles
  (see ``docs/ARCHITECTURE.md``, "Correctness machinery"), so
  reference counting frees everything a run drops, and the collector
  would only re-walk the in-flight generators at every young
  collection.  A cycle that a process body builds itself waits for
  the collector's first pass after ``run()`` returns.
"""

from __future__ import annotations

import gc
import heapq
import math
import typing
from collections import deque

from ..errors import SimulationError
from . import events as _events
from .events import AllOf, AnyOf, Event, Timeout, _Frame
from .process import Process, ProcessBody
from .rng import RandomStreams

#: Upper bound on pooled Timeout instances kept for reuse.
_TIMEOUT_POOL_LIMIT = 256
#: Upper bound on pooled process bootstrap frames kept for reuse.
_FRAME_POOL_LIMIT = 256
#: Upper bound on pooled generic Event instances kept for reuse.
_EVENT_POOL_LIMIT = 256

#: Cancelled-entry compaction: once at least this many cancellations
#: are pending *and* they exceed 1/4 of the live timed queue, the
#: queue is rebuilt without them (bounds memory under pause/resume-
#: heavy telemetry workloads).
_COMPACT_MIN_CANCELLED = 64


class Simulator:
    """Discrete-event simulator with a float-seconds clock.

    All timed components of the reproduction (devices, links, servers,
    MPI ranks, the Rebuilder) share one Simulator instance.  Determinism:
    events scheduled for the same time fire in schedule order, and all
    randomness flows through :class:`~repro.sim.rng.RandomStreams`.

    ``pooling=False`` disables the Timeout/frame/Event free pools
    (every event is freshly allocated) without changing the event
    order in any way — the differential test suite runs the same
    workload pooled and unpooled and asserts identical streams.
    """

    def __init__(self, seed: int = 0, pooling: bool = True):
        self.pooling = pooling
        self.now: float = 0.0
        self.rng = RandomStreams(seed)
        #: Timed queue: a heap of ``(time, seq, event)`` tuples.
        self._heap: list[tuple[float, int, Event]] = []
        #: Zero-delay fast lane, in schedule order; each queued event
        #: carries its schedule seq in ``_qseq`` (no tuple wrapping).
        self._runq: deque[Event] = deque()
        self._timeout_pool: list[Timeout] = []
        self._frame_pool: list[_Frame] = []
        self._event_pool: list[Event] = []
        # Per-simulator pool caps; zeroed by pooling=False so the run
        # loop never recycles (``len(pool) < 0`` is never true) and the
        # creation paths never find a pooled instance.
        self._timeout_limit = _TIMEOUT_POOL_LIMIT if pooling else 0
        self._frame_limit = _FRAME_POOL_LIMIT if pooling else 0
        self._event_limit = _EVENT_POOL_LIMIT if pooling else 0
        self._seq = 0
        self._next_pid = 0
        #: ``(time, seq, event)`` tuples handed to the timed queue —
        #: one per heap push.  Allocation receipts read this to report
        #: tuple churn honestly.
        self.timed_entry_tuples = 0
        #: Merge-verdict cache for the run loop: False only while the
        #: timed queue provably holds nothing at or before ``now``, so
        #: run-queue pops skip the timed probes entirely.  Every
        #: schedule path that can arm an entry at/behind ``now`` sets
        #: it back to True; the run loop re-verifies before trusting it.
        self._timed_ready = True
        #: Crashed-but-unjoined processes, keyed by their monotonic
        #: ``pid`` — never by ``id()``, which is an allocator address
        #: and differs across runs (DET004).
        self._crashed: dict[int, BaseException] = {}
        #: Events lazily discarded by :meth:`cancel`; timed pops skip
        #: them *without advancing the clock* (identity set — events
        #: hash by identity, no ``id()`` keys involved).
        self._cancelled: set[Event] = set()
        #: When set, :meth:`run` delegates to the attached
        #: :class:`~repro.obs.streaming.profiler.EngineProfiler`.
        self._profiler = None
        #: The running loop's ``until`` (infinity without one) while
        #: :meth:`run` runs; None outside it and while a dispatch still
        #: has callbacks to run after the current one.  :meth:`advance`
        #: and :meth:`take` decline whenever it is None.
        self._horizon: float | None = None

    @property
    def events_scheduled(self) -> int:
        """Total events ever scheduled — the engine-work odometer.

        Reads the sequence counter the run queue/heap already maintain,
        so exposing it costs the hot loop nothing.  Bench receipts use
        it to show how much event-loop work an optimisation (e.g.
        sub-request coalescing) removed.
        """
        return self._seq

    # -- event creation helpers -----------------------------------------
    def event(self) -> Event:
        """Create a fresh untriggered event.

        Recycles a pooled instance when one is available: a generic
        event whose sole consumer was a process resume is returned to
        the pool by the run loop the moment its value was delivered
        (see :mod:`repro.sim.events` for the contract).  Pooled reuse
        resets all life-cycle state, so a recycled event is
        indistinguishable from a fresh one.
        """
        pool = self._event_pool
        if pool:
            event = pool.pop()
            # _cb0/_callbacks/_exc are provably None at recycle time
            # and _value was cleared then (no payload retention).
            event._triggered = False
            event._processed = False
            event._had_joiners = False
            return event
        return Event(self)

    def timeout(self, delay: float, value: typing.Any = None) -> Timeout:
        """Create an event firing ``delay`` seconds from now.

        Recycles a pooled instance when one is available; see
        :mod:`repro.sim.events` for the (engine-internal) contract.
        """
        pool = self._timeout_pool
        if pool:
            # Reset + _schedule unrolled: one call layer per timeout
            # matters at hundreds of thousands of timeouts per run.
            timeout = pool.pop()
            if delay < 0:
                raise SimulationError(f"negative timeout delay: {delay}")
            timeout.delay = delay
            timeout._value = value
            timeout._processed = False
            if delay == 0.0:
                self._seq = timeout._qseq = self._seq + 1
                self._runq.append(timeout)
                return timeout
            seq = self._seq = self._seq + 1
            when = self.now + delay
            heapq.heappush(self._heap, (when, seq, timeout))
            self.timed_entry_tuples += 1
            if when <= self.now:
                self._timed_ready = True
            return timeout
        return Timeout(self, delay, value)

    def schedule_many(
        self,
        delays: typing.Iterable[float] | None = None,
        value: typing.Any = None,
        *,
        at: typing.Iterable[float] | None = None,
    ) -> list[Timeout]:
        """Bulk-create timeouts: one engine call for a whole batch.

        ``schedule_many(delays)`` is equivalent to
        ``[sim.timeout(d, value) for d in delays]`` — same pooling, same
        sequence numbers, bit-identical schedule — but hoists the
        per-call attribute traffic out of the loop.  Its one caller is
        the streaming sampler, which pre-arms its ticks 32 at a time.

        ``schedule_many(at=times)`` schedules at *absolute* simulated
        times instead (each >= now).  Callers that pre-arm a cumulative
        chain (t1 = now + d; t2 = t1 + d; ...) use this form so the
        armed times are bit-identical to sequential scheduling — a
        ``now + (t_k - now)`` round-trip through a delay would not be.
        """
        if (delays is None) == (at is None):
            raise SimulationError("schedule_many needs delays or at=, not both")
        out: list[Timeout] = []
        pool = self._timeout_pool
        runq = self._runq
        now = self.now
        seq = self._seq
        heap = self._heap
        heappush = heapq.heappush
        pushed = 0
        absolute = delays is None
        for x in (at if absolute else delays):
            if absolute:
                when = x
                delay = when - now
            else:
                delay = x
                when = now + delay
            if delay < 0:
                self._seq = seq
                self.timed_entry_tuples += pushed
                raise SimulationError(f"negative timeout delay: {delay}")
            if pool:
                timeout = pool.pop()
                timeout.delay = delay
                timeout._value = value
                timeout._processed = False
            else:
                timeout = Timeout.__new__(Timeout)
                # Unrolled Event.__init__ + Timeout.__init__ minus the
                # scheduling (done below); keep in sync with events.py.
                timeout.sim = self
                timeout._cb0 = None
                timeout._callbacks = None
                timeout._value = value
                timeout._exc = None
                timeout._triggered = True
                timeout._processed = False
                timeout._had_joiners = False
                timeout.delay = delay
            if delay == 0.0:
                seq = timeout._qseq = seq + 1
                runq.append(timeout)
            else:
                seq += 1
                heappush(heap, (when, seq, timeout))
                pushed += 1
                if when <= now:
                    self._timed_ready = True
            out.append(timeout)
        self._seq = seq
        self.timed_entry_tuples += pushed
        return out

    def all_of(self, events: typing.Sequence[Event]) -> AllOf:
        """Wait for every event in ``events``."""
        return AllOf(self, events)

    def any_of(self, events: typing.Sequence[Event]) -> AnyOf:
        """Wait for the first event in ``events``."""
        return AnyOf(self, events)

    def spawn(self, body: ProcessBody, name: str = "") -> Process:
        """Start a new process from a generator; returns the Process."""
        return Process(self, body, name=name)

    def spawn_many(
        self, bodies: typing.Iterable[ProcessBody], name: str = ""
    ) -> list[Process]:
        """Start a batch of processes in order; returns the Processes.

        Semantically ``[sim.spawn(b, name) for b in bodies]`` — spawn
        order, pids and bootstrap scheduling are identical — as one
        engine call for coalesced PFS fan-outs.  Bootstrap events come
        from the frame pool either way.
        """
        return [Process(self, body, name=name) for body in bodies]

    def gather(
        self, bodies: typing.Sequence[ProcessBody], name: str = ""
    ) -> typing.Generator[Event, typing.Any, list[typing.Any]]:
        """Run ``bodies`` concurrently and wait for all; returns their values.

        ``values = yield from sim.gather(bodies, name=...)`` is the
        request path's fan-out.  Any number of bodies but one is
        spawned as processes called ``name`` and joined with
        :meth:`all_of`, as a hand-built spawn list would be.  A lone body (the common case)
        runs inline in the caller, with no Process, bootstrap frame or
        AllOf.  It still takes the three zero-delay hops a spawned flow
        costs: one before it (the bootstrap) and two after it (the
        flow's completion and the AllOf's).  Every hop is counted and
        keeps its sequence number, so the schedule is the spawned
        form's, but a hop is dispatched only when another event is
        ready (:meth:`advance`); otherwise the caller runs straight on.
        A lone body that raises raises straight into the caller.

        Killing the caller aborts an inline body, where a spawned flow
        would run on to completion; a caller that is killed mid-flow
        and needs that (the Rebuilder's mover clients) spawns its flows
        itself.
        """
        if len(bodies) != 1:
            return (yield self.all_of(self.spawn_many(bodies, name)))
        if not self.advance(0.0):
            yield self.timeout(0.0)
        value = yield from bodies[0]
        if not self.advance(0.0):
            yield self.timeout(0.0)
        if not self.advance(0.0):
            yield self.timeout(0.0)
        return [value]

    # -- inline continuation ----------------------------------------------
    def advance(self, delay: float) -> bool:
        """Continue the running process ``delay`` from now without a wait.

        The order-neutral fast path for ``yield sim.timeout(delay)``::

            if not sim.advance(delay):
                yield sim.timeout(delay)

        It fires only when that timeout would be the loop's next event,
        resuming the caller: the run queue is empty, the timed front
        lies strictly after ``now + delay``, and ``now + delay`` does
        not pass the running loop's ``until``.  Then it counts the
        event (its sequence number is consumed), sets ``now`` to the
        float the timed entry would have carried and returns True, so
        ``events_scheduled``, every later event's order and every clock
        value are the round trip's.  Otherwise it changes nothing and
        returns False.  Outside :meth:`run`, so under :meth:`step`, it
        always returns False.
        """
        horizon = self._horizon
        if horizon is None or self._runq or delay < 0:
            return False
        when = self.now + delay
        heap = self._heap
        if when > horizon or (heap and heap[0][0] <= when):
            return False
        self._seq += 1
        self.now = when
        return True

    def take(self, event: Event) -> bool:
        """Hand the running process ``event`` without yielding it.

        The order-neutral fast path for yielding a freshly triggered
        grant or lock request::

            grant = resource.acquire(priority)
            if not sim.take(grant):
                yield grant

        It fires only when yielding ``event`` would make the loop
        dispatch it next, resuming the caller with its value: it is the
        run queue's only entry, it has no waiter and no failure, and no
        timed entry is due at ``now``.  Then it leaves the queue marked
        as its dispatch would mark it and returns True; the caller
        already holds the value (a grant is its own value, a lock
        request carries its token).  Otherwise it changes nothing and
        returns False.  Outside :meth:`run` it always returns False.
        """
        runq = self._runq
        if (self._horizon is None or len(runq) != 1 or runq[0] is not event
                or event._cb0 is not None or event._exc is not None):
            return False
        heap = self._heap
        if heap and heap[0][0] <= self.now:
            return False
        runq.pop()
        event._processed = True
        event._had_joiners = True
        return True

    def _fan_out(self, event: Event, cb0, callbacks) -> None:
        """Run a multi-waiter event's callbacks, continuation off.

        A callback that resumes a process is followed by the others, so
        that process's next wait is not the loop's next event: neither
        :meth:`advance` nor :meth:`take` may fire inside it.
        """
        horizon = self._horizon
        self._horizon = None
        cb0(event)
        for callback in callbacks:
            callback(event)
        self._horizon = horizon

    # -- engine plumbing --------------------------------------------------
    def _schedule(self, event: Event, delay: float) -> None:
        if delay == 0.0:
            self._seq = event._qseq = self._seq + 1
            self._runq.append(event)
            return
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past: {delay}")
        seq = self._seq = self._seq + 1
        when = self.now + delay
        heapq.heappush(self._heap, (when, seq, event))
        self.timed_entry_tuples += 1
        if when <= self.now:
            self._timed_ready = True

    def cancel(self, event: Event) -> None:
        """Discard a scheduled positive-delay event without firing it.

        The timed-queue entry is dropped *lazily*: when the event
        reaches the front of the queue it is skipped without advancing
        the clock, so cancelling (e.g. a telemetry sampler's pending
        tick) can never shift the timestamp of any later event — float
        arithmetic downstream stays bit-identical to a run where the
        event was never scheduled.

        Only positive-delay events are supported (zero-delay events
        live in the run queue, whose schedule-order contract forbids
        skipping); callers own that invariant.  Cancelling an already
        processed event is a no-op.

        Cancelled entries are compacted out of the queue once they
        exceed a quarter of its live size (pause/resume-heavy runs
        would otherwise accumulate them without bound).
        """
        if event._processed:
            return
        cancelled = self._cancelled
        cancelled.add(event)
        n = len(cancelled)
        if n >= _COMPACT_MIN_CANCELLED and n * 4 >= len(self._heap):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the timed queue without cancelled entries.

        Order preservation is free: entry order derives from
        ``(time, seq)``, not from queue structure, so dropping entries
        cannot reorder the survivors.  The heap is rebuilt *in place*
        because a running :meth:`run` pops through a local alias of
        it.  Only events actually found in the queue leave the
        cancelled set — an event cancelled before (re)scheduling keeps
        its pending cancellation.
        """
        cancelled = self._cancelled
        heap = self._heap
        removed: list[Event] = []
        kept = []
        for entry in heap:
            if entry[2] in cancelled:
                removed.append(entry[2])
            else:
                kept.append(entry)
        if removed:
            heap[:] = kept
            heapq.heapify(heap)
            cancelled.difference_update(removed)

    def _note_crash(self, process: Process, exc: BaseException) -> None:
        self._crashed[process.pid] = exc

    # -- running -----------------------------------------------------------
    def _pop_merged(self, until: float | None = None) -> Event | None:
        """Pop the globally next event, merging run-queue and timed queue.

        Returns None when the queue is drained, or when the next timed
        event lies beyond ``until`` (the caller finalises ``now``).
        Timed entries never carry a time below ``now`` (delays are
        non-negative and the clock only advances to popped times), so a
        timed event beats the run-queue front only when it shares the
        current timestamp with an earlier sequence number.
        """
        runq = self._runq
        cancelled = self._cancelled
        heap = self._heap
        while True:
            if runq:
                if heap and heap[0][0] <= self.now and heap[0][1] < runq[0]._qseq:
                    when, _, event = heapq.heappop(heap)
                    if cancelled and event in cancelled:
                        cancelled.discard(event)
                        continue
                    self.now = when
                    return event
                return runq.popleft()
            if heap:
                when = heap[0][0]
                if until is not None and when > until:
                    return None
                event = heapq.heappop(heap)[2]
                if cancelled and event in cancelled:
                    cancelled.discard(event)
                    continue
                self.now = when
                return event
            return None

    def _pop_next(self) -> Event:
        """Pop the globally next event; raises when the queue is empty."""
        event = self._pop_merged(None)
        if event is None:
            raise SimulationError("step() on an empty event queue")
        return event

    def step(self) -> None:
        """Process exactly one event (advancing the clock to it)."""
        event = self._pop_next()
        event._process()
        # A crashed process with no joiner is an unhandled simulation
        # error: surface it instead of silently dropping the failure.
        if self._crashed and isinstance(event, Process):
            crash = self._crashed.pop(event.pid, None)
            if crash is not None and not event._had_joiners:
                raise crash

    def run(self, until: float | None = None) -> float:
        """Run until the queue drains or the clock passes ``until``.

        Returns the final simulation time.  The cyclic garbage
        collector is off while the loop runs, profiled or not, and the
        caller's setting is restored on every exit, including a raised
        crash.  Nothing is collected on exit (see the module docstring
        for why none of this needs the collector).
        """
        if until is not None and until < self.now:
            raise SimulationError(f"until={until} is in the past (now={self.now})")
        collecting = gc.isenabled()
        gc.disable()
        self._horizon = math.inf if until is None else until
        try:
            if self._profiler is not None:
                return self._profiler.run(until)
            return self._loop(until)
        finally:
            self._horizon = None
            if collecting:
                gc.enable()

    def _loop(self, until: float | None) -> float:
        """The engine's inner loop behind :meth:`run`.

        The pop is inlined (no per-event ``step()`` call), pooled
        timeouts, bootstrap frames and generic events are recycled
        here, and the dominant dispatch — resume a waiting process
        generator — is inlined down to the ``generator.send`` call.
        """
        heap = self._heap
        runq = self._runq
        pool = self._timeout_pool
        fpool = self._frame_pool
        epool = self._event_pool
        tlimit = self._timeout_limit
        flimit = self._frame_limit
        elimit = self._event_limit
        crashed = self._crashed
        cancelled = self._cancelled
        heappop = heapq.heappop
        generic_process = Event._process
        resume = _events._RESUME
        # External drives (step/_pop_merged) do not maintain the merge
        # cache; re-verify on entry.
        self._timed_ready = True
        while True:
            # -- pop ----------------------------------------------------
            if runq and not self._timed_ready:
                # Zero-delay fast lane: the timed front was verified to
                # lie in the future and dispatch cannot arm anything at
                # or before ``now`` without flipping ``_timed_ready``.
                event = runq.popleft()
            elif runq:
                if heap and heap[0][0] <= self.now:
                    if heap[0][1] < runq[0]._qseq:
                        # A timed event sharing the current timestamp
                        # but scheduled earlier still goes first.
                        when, _, event = heappop(heap)
                        if cancelled and event in cancelled:
                            cancelled.discard(event)
                            continue
                        self.now = when
                    else:
                        event = runq.popleft()
                else:
                    self._timed_ready = False
                    event = runq.popleft()
            elif heap:
                when = heap[0][0]
                if until is not None and when > until:
                    self.now = until
                    return until
                event = heappop(heap)[2]
                if cancelled and event in cancelled:
                    cancelled.discard(event)
                    continue
                # The clock advance can move further timed entries
                # into the past relative to fresh run-queue events:
                # re-arm the merge check.
                self._timed_ready = True
                self.now = when
            else:
                break
            # -- dispatch -----------------------------------------------
            cls = type(event)
            if cls is Timeout:
                event._processed = True
                cb0 = event._cb0
                if cb0 is None:
                    continue
                event._cb0 = None
                if (event._callbacks is None
                        and getattr(cb0, "__func__", None) is resume):
                    # The plain `yield sim.timeout(x)` idiom: recycle
                    # the timeout and fall through to the inlined
                    # resume below (the value was read already).
                    value = event._value
                    if len(pool) < tlimit:
                        pool.append(event)
                else:
                    event._had_joiners = True
                    callbacks = event._callbacks
                    if callbacks is None:
                        cb0(event)
                    else:
                        event._callbacks = None
                        self._fan_out(event, cb0, callbacks)
                    continue
            elif cls is _Frame:
                # Process bootstrap: always resumes its process; the
                # frame recycles immediately (nothing else can hold it).
                event._processed = True
                cb0 = event._cb0
                if cb0 is None:
                    continue
                event._cb0 = None
                value = None
                if len(fpool) < flimit:
                    event._processed = False
                    fpool.append(event)
            elif cls._process is generic_process:
                # Inlined Event._process(): covers plain events, grants,
                # conditions and process completions — every class that
                # does not override the hook.
                event._processed = True
                cb0 = event._cb0
                if cb0 is not None:
                    event._cb0 = None
                    event._had_joiners = True
                    callbacks = event._callbacks
                    if (callbacks is None and event._exc is None
                            and getattr(cb0, "__func__", None) is resume):
                        value = event._value
                        if cls is Event and len(epool) < elimit:
                            # Sole consumer was a process resume: the
                            # waiter received the value below and, per
                            # the yield contract, holds no further
                            # interest — recycle.  Clear the payload so
                            # a pooled event can never leak it.
                            event._value = None
                            epool.append(event)
                    else:
                        if callbacks is None:
                            cb0(event)
                        else:
                            event._callbacks = None
                            self._fan_out(event, cb0, callbacks)
                        if crashed and isinstance(event, Process):
                            crash = crashed.pop(event.pid, None)
                            if crash is not None and not event._had_joiners:
                                raise crash
                        continue
                else:
                    event._had_joiners = False
                    if crashed and isinstance(event, Process):
                        # A crashed process with no joiner is an
                        # unhandled simulation error: surface it.
                        crash = crashed.pop(event.pid, None)
                        if crash is not None:
                            raise crash
                    continue
            else:
                event._process()
                if crashed and isinstance(event, Process):
                    crash = crashed.pop(event.pid, None)
                    if crash is not None and not event._had_joiners:
                        raise crash
                continue
            # -- inlined Process._resume success path -------------------
            proc = cb0.__self__
            if proc._triggered:
                continue  # killed while waiting; stale wakeup
            proc._waiting_on = None
            try:
                target = proc.body.send(value)
            except StopIteration as stop:
                proc._presume = None
                proc.succeed(stop.value)
                continue
            except BaseException as exc:  # noqa: BLE001 - fail the process
                proc._fail_with(exc)
                continue
            proc._started = True
            if target.__class__ is Timeout or isinstance(target, Event):
                if target.sim is self:
                    proc._waiting_on = target
                    if target._cb0 is None and not target._processed:
                        target._cb0 = cb0
                    else:
                        target.add_callback(cb0)
                    continue
                proc._throw_in(SimulationError(
                    f"process {proc.name} yielded a foreign event"
                ))
                continue
            proc._throw_in(SimulationError(
                f"process {proc.name} yielded {target!r}; expected an Event"
            ))
        if until is not None:
            self.now = until
        return self.now

    def run_process(self, body: ProcessBody, name: str = "") -> typing.Any:
        """Spawn ``body``, run the simulation, return the process result.

        Convenience for tests and experiment drivers that are structured
        around one top-level process.
        """
        proc = self.spawn(body, name=name)
        self.run()
        if not proc.triggered:
            raise SimulationError(
                f"process {proc.name} never finished (deadlock: queue drained)"
            )
        return proc.value

    @property
    def queued_events(self) -> int:
        """Number of events currently scheduled (for tests/diagnostics).

        Cancelled-but-not-yet-popped events still occupy queue slots;
        they are excluded here because they will never fire.
        """
        return len(self._heap) + len(self._runq) - len(self._cancelled)
