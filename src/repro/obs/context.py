"""Trace contexts: the per-request handle that records spans.

A :class:`TraceContext` is created by the tracer when a request enters
the stack (one per MPI-IO call, one per Rebuilder data movement) and is
threaded down through the layers as an optional ``ctx`` argument.  Each
layer opens sim-time spans on it (``begin``/``end``) or drops instant
events (``event``); parent/child nesting is explicit via
:meth:`TraceContext.under`, which derives a child context whose spans
hang off a given span — that makes nesting correct even when sub-flows
run concurrently.

When tracing is off, every layer receives ``ctx=None`` and opens no
span: each traced function begins its span only ``if ctx is not None``
and ends it in ``finally`` only if it was begun.  Tracing therefore
costs nothing when disabled and never changes what it observes (no RNG
draws, no simulator events — the determinism regression test enforces
this).
"""

from __future__ import annotations

import typing

if typing.TYPE_CHECKING:  # pragma: no cover
    from .tracer import Tracer


class Span:
    """One completed (or in-flight) sim-time interval of a request.

    ``start``/``end`` are simulation times (seconds).  ``component``
    names the hardware/software entity the span ran on ("app",
    "dserver0", "nic:node1", ...) — it becomes the Chrome-trace
    "process".  ``tid`` is the MPI rank the work belongs to (-1 for
    background Rebuilder work) — it becomes the "thread".
    """

    __slots__ = (
        "span_id", "parent_id", "trace_id", "name", "cat", "component",
        "tid", "start", "end", "attrs",
    )

    def __init__(
        self,
        span_id: int,
        parent_id: int | None,
        trace_id: int,
        name: str,
        cat: str,
        component: str,
        tid: int,
        start: float,
    ):
        self.span_id = span_id
        self.parent_id = parent_id
        self.trace_id = trace_id
        self.name = name
        self.cat = cat
        self.component = component
        self.tid = tid
        self.start = start
        self.end: float | None = None
        self.attrs: dict = {}

    @property
    def duration(self) -> float:
        """Sim-seconds covered; 0.0 while still open."""
        return (self.end - self.start) if self.end is not None else 0.0

    @property
    def finished(self) -> bool:
        return self.end is not None

    def as_dict(self) -> dict:
        """JSON-ready representation (one JSONL line per span)."""
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "trace_id": self.trace_id,
            "name": self.name,
            "cat": self.cat,
            "component": self.component,
            "tid": self.tid,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "attrs": self.attrs,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Span {self.span_id} {self.cat}:{self.name} on "
            f"{self.component} [{self.start:.6f}..{self.end}]>"
        )


class TraceContext:
    """Live recording handle for one traced request.

    All methods are synchronous and never touch the event queue: a
    context only *observes* simulation time, it cannot perturb it.
    """

    __slots__ = ("tracer", "trace_id", "tid", "root", "parent")

    def __init__(
        self,
        tracer: "Tracer",
        trace_id: int,
        tid: int,
        root: Span | None,
        parent: Span | None,
    ):
        self.tracer = tracer
        self.trace_id = trace_id
        self.tid = tid
        #: The request's top-level span (ended by :meth:`finish`).
        self.root = root
        #: Default parent for spans begun on this context.
        self.parent = parent

    def begin(self, name: str, cat: str, component: str, **attrs) -> Span:
        """Open a child span; close it with :meth:`end`."""
        return self.tracer._begin(self, name, cat, component, attrs)

    def end(self, span: Span | None, **attrs) -> None:
        """Close a span opened with :meth:`begin` (None-safe)."""
        if span is not None:
            self.tracer._end(span, attrs)

    def event(self, name: str, cat: str, component: str, **attrs) -> None:
        """Record an instant (zero-duration) event."""
        self.tracer._event(self, name, cat, component, attrs)

    def under(self, span: Span | None) -> "TraceContext":
        """A derived context whose spans nest under ``span``."""
        if span is None:
            return self
        return TraceContext(self.tracer, self.trace_id, self.tid,
                            self.root, span)

    def finish(self, **attrs) -> None:
        """End the request's root span (idempotent)."""
        root = self.root
        if root is not None and root.end is None:
            self.tracer._end(root, attrs)

