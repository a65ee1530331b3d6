"""IOSIG-style access signatures (paper ref [33]).

IOSIG characterises a process's I/O by trace analysis: spatial pattern
(sequential / strided / random), request-size pattern, and repetition.
S4D-Cache's evaluation uses it to explain *why* each benchmark benefits
as much as it does (Table III's "DServers mostly sees sequential
requests"); this module extracts the same characterisation from the
simulated traces, per rank and for whole runs.
"""

from __future__ import annotations

import dataclasses
import statistics
import typing

from .analysis import detect_signature, randomness_ratio
from .tracer import TraceRecord


@dataclasses.dataclass(frozen=True)
class RankSignature:
    """The extracted signature of one rank's request stream."""

    rank: int
    requests: int
    bytes_moved: int
    spatial: str            # "sequential" / "strided(N)" / "random"
    size_pattern: str       # "fixed(N)" / "mixed"
    dominant_size: int
    read_fraction: float
    #: Fraction of requests whose (offset, size) repeats an earlier one.
    reuse_fraction: float

    def describe(self) -> str:
        direction = (
            "read-only" if self.read_fraction == 1.0
            else "write-only" if self.read_fraction == 0.0
            else f"{self.read_fraction:.0%} reads"
        )
        return (
            f"rank {self.rank}: {self.requests} requests, "
            f"{self.spatial}, {self.size_pattern}, {direction}, "
            f"reuse {self.reuse_fraction:.0%}"
        )


def extract_rank_signature(
    rank: int, records: typing.Sequence[TraceRecord]
) -> RankSignature:
    """Characterise one rank's (time-ordered) records."""
    ordered = sorted(records, key=lambda r: r.time)
    offsets_sizes = [(r.offset, r.size) for r in ordered]
    sizes = [r.size for r in ordered]
    size_values = set(sizes)
    if len(size_values) == 1:
        size_pattern = f"fixed({sizes[0]})"
    else:
        size_pattern = "mixed"
    dominant = statistics.mode(sizes) if sizes else 0
    reads = sum(1 for r in ordered if r.op == "read")
    seen: set[tuple[int, int]] = set()
    repeats = 0
    for key in offsets_sizes:
        if key in seen:
            repeats += 1
        else:
            seen.add(key)
    return RankSignature(
        rank=rank,
        requests=len(ordered),
        bytes_moved=sum(sizes),
        spatial=detect_signature(offsets_sizes),
        size_pattern=size_pattern,
        dominant_size=dominant,
        read_fraction=reads / len(ordered) if ordered else 0.0,
        reuse_fraction=repeats / len(ordered) if ordered else 0.0,
    )


@dataclasses.dataclass
class TraceReport:
    """Whole-trace characterisation (IOSIG's run-level view)."""

    ranks: list[RankSignature]
    randomness: float
    dserver_pct: float
    cserver_pct: float

    def spatial_mix(self) -> dict[str, int]:
        """How many ranks fall in each spatial class."""
        mix: dict[str, int] = {}
        for signature in self.ranks:
            key = signature.spatial.split("(")[0]
            mix[key] = mix.get(key, 0) + 1
        return mix

    def to_text(self) -> str:
        lines = ["IOSIG trace report"]
        lines.append(
            f"  ranks: {len(self.ranks)}; stream randomness "
            f"{self.randomness:.2f}; routing "
            f"{self.dserver_pct:.1f}% D / {self.cserver_pct:.1f}% C"
        )
        mix = self.spatial_mix()
        lines.append(
            "  spatial mix: "
            + ", ".join(f"{k}={v}" for k, v in sorted(mix.items()))
        )
        for signature in self.ranks:
            lines.append("  " + signature.describe())
        return "\n".join(lines)


def analyse_trace(records: typing.Sequence[TraceRecord]) -> TraceReport:
    """Build the run-level report from trace records."""
    from .analysis import request_distribution

    by_rank: dict[int, list[TraceRecord]] = {}
    for record in records:
        by_rank.setdefault(record.rank, []).append(record)
    ranks = [
        extract_rank_signature(rank, rank_records)
        for rank, rank_records in sorted(by_rank.items())
    ]
    d_pct, c_pct = request_distribution(list(records))
    return TraceReport(
        ranks=ranks,
        randomness=randomness_ratio(list(records)),
        dserver_pct=d_pct,
        cserver_pct=c_pct,
    )
