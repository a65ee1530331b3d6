"""Trace-driven workload replay.

Research I/O systems are routinely evaluated against recorded request
traces (the paper's own IOSIG tooling produces them).  A
:class:`TraceWorkload` replays a trace file through the simulated
stack; together with :func:`export_trace` over
:func:`~repro.iosig.trace_records` this closes the loop: record a
simulated (or synthesised) run, replay it against a different
configuration.

Trace format: text, one request per line::

    # comment
    <rank> <op> <offset> <size>

with ``op`` in {read, write} and offsets/sizes in bytes (size suffixes
like ``16KB`` are accepted).  Replay preserves per-rank request order;
an optional op filter selects the write or read sub-stream.
"""

from __future__ import annotations

import dataclasses
import io
import typing

from ..errors import WorkloadError
from ..units import parse_size
from .base import Segment, Workload


@dataclasses.dataclass(frozen=True, slots=True)
class TraceRequest:
    """One parsed trace line."""

    rank: int
    op: str
    offset: int
    size: int


def parse_trace(
    lines: typing.Iterable[str], source: str = "<trace>"
) -> list[TraceRequest]:
    """Parse trace lines; raises WorkloadError with line numbers."""
    requests: list[TraceRequest] = []
    for number, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 4:
            raise WorkloadError(
                f"{source}:{number}: expected 'rank op offset size', "
                f"got {line!r}"
            )
        rank_text, op, offset_text, size_text = parts
        if op not in ("read", "write"):
            raise WorkloadError(
                f"{source}:{number}: op must be read/write, got {op!r}"
            )
        try:
            rank = int(rank_text)
            offset = parse_size(offset_text)
            size = parse_size(size_text)
        except (ValueError, Exception) as exc:
            raise WorkloadError(f"{source}:{number}: {exc}") from exc
        if rank < 0 or size <= 0:
            raise WorkloadError(
                f"{source}:{number}: rank must be >= 0 and size > 0"
            )
        requests.append(TraceRequest(rank, op, offset, size))
    if not requests:
        raise WorkloadError(f"{source}: trace contains no requests")
    return requests


def export_trace(records, stream: io.TextIOBase) -> int:
    """Write IOSIG trace records in the replayable format.

    ``records`` is typically :func:`repro.iosig.trace_records` of a
    run; returns the number of records written.
    """
    count = 0
    stream.write("# rank op offset size\n")
    for record in records:
        stream.write(
            f"{record.rank} {record.op} {record.offset} {record.size}\n"
        )
        count += 1
    return count


class TraceWorkload(Workload):
    """Replay a recorded request trace.

    ``op_filter`` restricts replay to one direction ("read"/"write");
    the runner's phase structure drives each direction separately, so
    by default :meth:`segments_for_rank` serves whichever op the body
    is built for via :meth:`make_body`.
    """

    def __init__(
        self,
        trace: str | typing.Iterable[str],
        path: str = "/trace.dat",
        op_filter: str | None = None,
        seed: int = 0,
    ):
        if isinstance(trace, str):
            with open(trace) as fh:
                requests = parse_trace(fh, source=trace)
        else:
            requests = parse_trace(trace)
        if op_filter not in (None, "read", "write"):
            raise WorkloadError(f"bad op_filter {op_filter!r}")
        if op_filter is not None:
            requests = [r for r in requests if r.op == op_filter]
            if not requests:
                raise WorkloadError(f"trace has no {op_filter} requests")
        processes = max(r.rank for r in requests) + 1
        super().__init__(processes, path, seed)
        self.requests = requests

    def requests_for_rank(self, rank: int) -> list[TraceRequest]:
        return [r for r in self.requests if r.rank == rank]

    def segments_for_rank(self, rank: int) -> list[Segment]:
        if not (0 <= rank < self.processes):
            raise WorkloadError(f"rank {rank} out of range")
        return [
            (r.offset, r.size) for r in self.requests if r.rank == rank
        ]

    def make_body(self, op: str | None = None):
        """Replay body.

        With ``op=None`` each request keeps its traced direction
        (mixed read/write replay); otherwise every request is issued
        with the forced op, matching the base-class contract.
        """
        if op is not None:
            return super().make_body(op)

        def body(ctx):
            handle = yield from ctx.open(self.path, max(self.size_hint(), 1))
            for request in self.requests_for_rank(ctx.rank):
                if request.op == "read":
                    yield from handle.read_at(request.offset, request.size)
                else:
                    yield from handle.write_at(request.offset, request.size)

        return body
