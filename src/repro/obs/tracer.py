"""The span recorder behind end-to-end request tracing.

One :class:`Tracer` is bound to one simulation run (``bind(cluster)``
or ``Tracer(sim)``); the I/O layers obtain per-request
:class:`~repro.obs.context.TraceContext` handles from it via
:meth:`Tracer.request` and record spans as the request descends the
stack.  When no tracer is attached a layer's ``obs`` is None and its
requests carry ``ctx=None``: the disabled path makes no tracer call,
allocates nothing and draws no randomness, so enabling/disabling
tracing can never change simulated results.

The tracer profiles itself: wall-clock seconds spent recording and the
number of spans/events captured are exposed via :meth:`Tracer.stats`
(and through the :class:`~repro.obs.metrics.MetricsRegistry`).
"""

from __future__ import annotations

import dataclasses
import time
import typing

from .context import Span, TraceContext

if typing.TYPE_CHECKING:  # pragma: no cover
    from ..sim import Simulator


@dataclasses.dataclass(frozen=True)
class TracerStats:
    """Tracer self-profiling snapshot."""

    spans: int
    events: int
    open_spans: int
    #: Wall-clock seconds spent inside record calls.
    overhead_wall_seconds: float

    @property
    def records_per_wall_second(self) -> float:
        total = self.spans + self.events
        if self.overhead_wall_seconds <= 0:
            return 0.0
        return total / self.overhead_wall_seconds

    def as_dict(self) -> dict:
        return {
            "spans": self.spans,
            "events": self.events,
            "open_spans": self.open_spans,
            "overhead_wall_seconds": self.overhead_wall_seconds,
            "records_per_wall_second": self.records_per_wall_second,
        }


class Tracer:
    """Records spans against one simulator's clock."""

    def __init__(self, sim: "Simulator | None" = None):
        self.sim = sim
        #: Every span ever begun, in begin order (deterministic).
        self.spans: list[Span] = []
        #: Instant events (zero-duration marks).
        self.instants: list[Span] = []
        self._next_span_id = 1
        self._next_trace_id = 1
        self._overhead_wall = 0.0
        self._spans_finished = 0

    # -- wiring ----------------------------------------------------------
    def bind(self, cluster) -> "Tracer":
        """Attach to a built cluster: clock + I/O layer + Rebuilder."""
        self.sim = cluster.sim
        cluster.layer.obs = self
        if getattr(cluster, "middleware", None) is not None:
            cluster.middleware.rebuilder.obs = self
        return self

    # -- recording --------------------------------------------------------
    def request(
        self,
        rank: int,
        op: str,
        path: str,
        offset: int,
        size: int,
        name: str | None = None,
        component: str = "app",
        cat: str = "mpiio",
    ) -> TraceContext:
        """Open a root span for one request; returns its context.

        The caller must ``ctx.finish()`` when the request completes
        (use try/finally so killed processes still close their root).
        """
        wall = time.perf_counter()
        trace_id = self._next_trace_id
        self._next_trace_id += 1
        span = Span(
            self._next_span_id, None, trace_id,
            name if name is not None else op,
            cat, component, rank, self.sim.now,
        )
        self._next_span_id += 1
        span.attrs["path"] = path
        span.attrs["offset"] = offset
        span.attrs["size"] = size
        span.attrs["op"] = op
        self.spans.append(span)
        ctx = TraceContext(self, trace_id, rank, span, span)
        self._overhead_wall += time.perf_counter() - wall
        return ctx

    def _begin(self, ctx: TraceContext, name: str, cat: str,
               component: str, attrs: dict) -> Span:
        wall = time.perf_counter()
        parent = ctx.parent
        span = Span(
            self._next_span_id,
            parent.span_id if parent is not None else None,
            ctx.trace_id, name, cat, component, ctx.tid, self.sim.now,
        )
        self._next_span_id += 1
        if attrs:
            span.attrs.update(attrs)
        self.spans.append(span)
        self._overhead_wall += time.perf_counter() - wall
        return span

    def _end(self, span: Span, attrs: dict) -> None:
        wall = time.perf_counter()
        span.end = self.sim.now
        if attrs:
            span.attrs.update(attrs)
        self._spans_finished += 1
        self._overhead_wall += time.perf_counter() - wall

    def _event(self, ctx: TraceContext, name: str, cat: str,
               component: str, attrs: dict) -> None:
        wall = time.perf_counter()
        parent = ctx.parent
        span = Span(
            self._next_span_id,
            parent.span_id if parent is not None else None,
            ctx.trace_id, name, cat, component, ctx.tid, self.sim.now,
        )
        self._next_span_id += 1
        span.end = span.start
        if attrs:
            span.attrs.update(attrs)
        self.instants.append(span)
        self._overhead_wall += time.perf_counter() - wall

    # -- inspection --------------------------------------------------------
    def finished_spans(self) -> list[Span]:
        """Spans with both endpoints recorded, in begin order."""
        return [s for s in self.spans if s.end is not None]

    def by_id(self) -> dict[int, Span]:
        index = {s.span_id: s for s in self.spans}
        index.update({s.span_id: s for s in self.instants})
        return index

    def stats(self) -> TracerStats:
        return TracerStats(
            spans=len(self.spans),
            events=len(self.instants),
            open_spans=len(self.spans) - self._spans_finished,
            overhead_wall_seconds=self._overhead_wall,
        )

    def as_dict(self) -> dict:
        """Registry hook: the self-profiling numbers."""
        return self.stats().as_dict()

    def clear(self) -> None:
        self.spans.clear()
        self.instants.clear()
        self._next_span_id = 1
        self._next_trace_id = 1
        self._overhead_wall = 0.0
        self._spans_finished = 0

    def __len__(self) -> int:
        return len(self.spans)

