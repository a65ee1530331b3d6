"""EngineProfiler: attribute engine wall time to component callbacks.

When attached, :meth:`repro.sim.core.Simulator.run` delegates to
:meth:`EngineProfiler.run`, a reference event loop that times each
event's callback dispatch with ``perf_counter`` and charges it to the
component that owns the callback (derived from the resumed process's
name: ``rank12`` -> ``rank``, ``read:/data.dat`` -> ``read``).

The profiled loop replays the engine's exact pop semantics — run-queue
/ heap merge, ``until`` handling, lazy cancellation, crashed-process
surfacing — so simulated results are bit-identical with and without
the profiler; only wall-clock speed differs (the pooling fast path is
skipped, which is timing-transparent).  Wall-clock reads are
reporting-only and never feed back into the simulation (sanctioned via
the DET001 allowlist, like the tracer's overhead meter).

It counts dispatches.  A process that continues inline
(``Simulator.advance``/``take``) skips a scheduled event and keeps
running in the dispatch that resumed it, and a cancelled timed entry
is dropped undispatched.  So the report also gives the events
scheduled over the profiled runs, read off the engine's odometer at
each run's start and end (nothing is counted on the hot path), with
the difference labelled "not dispatched (continued inline or
cancelled)".
"""

from __future__ import annotations

import time
import typing

from ...errors import SimulationError
from ...sim.events import Event
from ...sim.process import Process

if typing.TYPE_CHECKING:  # pragma: no cover
    from ...sim import Simulator


#: The label of the report row that counts events scheduled but never
#: dispatched.
NOT_DISPATCHED = "not dispatched (continued inline or cancelled)"


def _settled(sim: "Simulator") -> int:
    """Events scheduled so far that are no longer queued.

    Its change over a run counts exactly the events the run dispatched,
    continued inline or dropped as cancelled, whatever was queued when
    the run began or is left queued when it stops.
    """
    return sim.events_scheduled - len(sim._heap) - len(sim._runq)


def component_of(event: Event) -> str:
    """The attribution key for one event's callback dispatch."""
    if isinstance(event, Process):
        name = event.name
    else:
        owner = getattr(event._cb0, "__self__", None)
        if isinstance(owner, Process):
            name = owner.name
        else:
            name = type(event).__name__
    if not name:
        return "anon"
    # "read:/data/f1.dat" -> "read"; "rank12" -> "rank".
    name = name.split(":", 1)[0].rstrip("0123456789")
    return name or "anon"


class EngineProfiler:
    """Wall-time breakdown of the event loop by component."""

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.wall: dict[str, float] = {}
        self.events: dict[str, int] = {}
        self.total_wall = 0.0
        #: Dispatches over the profiled runs.
        self.total_events = 0
        #: Events scheduled over the profiled runs (see :func:`_settled`).
        self.total_scheduled = 0
        sim._profiler = self

    def detach(self) -> None:
        if self.sim._profiler is self:
            self.sim._profiler = None

    # -- the profiled reference loop ------------------------------------
    def run(self, until: float | None = None) -> float:
        """Mirror of ``Simulator.run`` with per-event timing.

        Pops through ``Simulator._pop_merged`` so the engine's exact
        run-queue / heap merge, cancellation and ``until`` semantics
        are replayed, not reimplemented here.
        """
        sim = self.sim
        crashed = sim._crashed
        pop = sim._pop_merged
        clock = time.perf_counter
        wall = self.wall
        counts = self.events
        settled = _settled(sim)
        loop_start = clock()
        try:
            while True:
                event = pop(until)
                if event is None:
                    break
                key = component_of(event)
                t0 = clock()
                event._process()
                dt = clock() - t0
                wall[key] = wall.get(key, 0.0) + dt
                counts[key] = counts.get(key, 0) + 1
                self.total_events += 1
                if crashed and isinstance(event, Process):
                    crash = crashed.pop(event.pid, None)
                    if crash is not None and not event._had_joiners:
                        raise crash
        finally:
            self.total_wall += clock() - loop_start
            self.total_scheduled += _settled(sim) - settled
        if until is not None:
            sim.now = until
        return sim.now

    def step(self) -> None:  # pragma: no cover - parity helper
        raise SimulationError("EngineProfiler only wraps run()")

    # -- reporting ------------------------------------------------------
    def report(self) -> list[dict]:
        """Per-component rows, heaviest wall time first.

        Each row's ``events`` counts dispatches.  A last row, labelled
        :data:`NOT_DISPATCHED`, holds the events scheduled but never
        dispatched (no wall time of its own), so the ``events`` column
        sums to :attr:`total_scheduled`.
        """
        rows = []
        for key in sorted(self.wall, key=lambda k: -self.wall[k]):
            seconds = self.wall[key]
            rows.append({
                "component": key,
                "events": self.events[key],
                "wall_seconds": seconds,
                "share": seconds / self.total_wall if self.total_wall else 0.0,
            })
        rows.append({"component": NOT_DISPATCHED,
                     "events": self.total_scheduled - self.total_events,
                     "wall_seconds": 0.0, "share": 0.0})
        return rows

    def render(self) -> str:
        """Plain-text breakdown table (printed at CLI exit)."""
        lines = [
            "engine wall-time by component "
            f"({self.total_events} dispatched of {self.total_scheduled} "
            f"events scheduled, {self.total_wall:.3f}s in loop):",
            f"  {'component':<20}{'events':>10}{'wall':>10}{'share':>8}",
        ]
        *rows, skipped = self.report()
        for row in rows:
            lines.append(
                f"  {row['component']:<20}{row['events']:>10}"
                f"{row['wall_seconds'] * 1e3:>8.1f}ms"
                f"{row['share']:>8.1%}"
            )
        lines.append(f"  {'not dispatched':<20}{skipped['events']:>10}"
                     "  (continued inline or cancelled)")
        dispatch = sum(self.wall.values())
        overhead = self.total_wall - dispatch
        if self.total_wall > 0:
            lines.append(
                f"  {'(pop/bookkeeping)':<20}{'':>10}"
                f"{overhead * 1e3:>8.1f}ms{overhead / self.total_wall:>8.1%}"
            )
        return "\n".join(lines)
