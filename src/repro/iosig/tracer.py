"""Request trace records, derived from the results a run keeps."""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass(frozen=True, slots=True)
class TraceRecord:
    """One traced request and where its bytes went."""

    time: float
    rank: int
    op: str
    path: str
    offset: int
    size: int
    #: Bytes served by the HDD DServers.
    dserver_bytes: int
    #: Bytes served by the SSD CServers.
    cserver_bytes: int
    #: End-to-end latency of the request.
    elapsed: float = 0.0

    @property
    def target(self) -> str:
        """Majority routing target ("dservers"/"cservers")."""
        return (
            "cservers"
            if self.cserver_bytes > self.dserver_bytes
            else "dservers"
        )


def trace_records(run) -> list[TraceRecord]:
    """The IOSIG trace of a :class:`~repro.cluster.RunResult`.

    Built on demand from the ``IOResult`` every rank keeps in its
    ``RankStats.results``: one record per MPI-IO request, jobs in the
    order they ran, then ranks, each rank's requests in completion
    order.
    """
    jobs = sorted(
        (ranks for phase in run.phases.values()
         for ranks in phase.per_instance),
        key=lambda ranks: ranks[0].start_time,
    )
    return [
        TraceRecord(
            time=io.start_time,
            rank=stats.rank,
            op=io.op,
            path=io.path,
            offset=io.offset,
            size=io.size,
            dserver_bytes=io.size - io.cserver_bytes,
            cserver_bytes=io.cserver_bytes,
            elapsed=io.elapsed,
        )
        for ranks in jobs
        for stats in ranks
        for io in stats.results
    ]
