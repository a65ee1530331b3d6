"""Two-phase collective I/O (§II.A, ROMIO's collective buffering).

All ranks of a job call the collective with their own noncontiguous
segments.  The union is merged into contiguous *file domains*, each
assigned to an aggregator rank.  Phase one shuffles data between ranks
and aggregators over the network; phase two has the aggregators issue
large contiguous requests to the file system.

Usage requires every rank to call the collective in the same order
(the MPI-IO contract).  The I/O layer must expose ``fabric`` and
``node_for`` (both :class:`~repro.mpiio.api.DirectIO` and the S4D
middleware do).
"""

from __future__ import annotations

import dataclasses

from ..errors import MPIIOError
from .datasieve import Segment, coalesce


@dataclasses.dataclass(slots=True)
class _CollectiveCall:
    """Rendezvous state of one collective invocation."""

    deposits: dict[int, list[Segment]] = dataclasses.field(default_factory=dict)
    plan: "_Plan | None" = None


@dataclasses.dataclass(slots=True)
class _Plan:
    #: aggregator rank -> contiguous (offset, size) domains to access.
    domains: dict[int, list[Segment]]
    #: (src_rank, agg_rank) -> bytes to shuffle.
    shuffle: dict[tuple[int, int], int]


class CollectiveState:
    """Shared per-job registry of in-flight collective calls."""

    def __init__(self) -> None:
        self._counters: dict[int, int] = {}
        self._calls: dict[int, _CollectiveCall] = {}

    def next_call(self, rank: int) -> int:
        call_id = self._counters.get(rank, 0)
        self._counters[rank] = call_id + 1
        return call_id

    def deposit(self, call_id: int, rank: int, segments: list[Segment]) -> None:
        call = self._calls.setdefault(call_id, _CollectiveCall())
        if rank in call.deposits:
            raise MPIIOError(
                f"rank {rank} deposited twice in collective call {call_id}"
            )
        call.deposits[rank] = segments

    def plan(self, call_id: int, num_aggregators: int) -> _Plan:
        call = self._calls[call_id]
        if call.plan is None:
            call.plan = _make_plan(call.deposits, num_aggregators)
        return call.plan


def _make_plan(deposits: dict[int, list[Segment]], num_aggregators: int) -> _Plan:
    """Merge all ranks' segments and carve aggregator file domains."""
    everything = [seg for segs in deposits.values() for seg in segs]
    extents = coalesce(everything, max_hole=0)
    total = sum(size for _, size in extents)
    if total == 0:
        return _Plan(domains={}, shuffle={})
    aggregators = sorted(deposits)[:num_aggregators]
    share = -(-total // len(aggregators))  # ceil division

    # Walk the merged extents, cutting a ~equal byte share per aggregator.
    domains: dict[int, list[Segment]] = {agg: [] for agg in aggregators}
    owners: list[tuple[int, int, int]] = []  # (start, end, agg)
    agg_idx, remaining = 0, share
    for offset, size in extents:
        pos = offset
        end = offset + size
        while pos < end:
            take = min(remaining, end - pos)
            agg = aggregators[agg_idx]
            if domains[agg] and domains[agg][-1][0] + domains[agg][-1][1] == pos:
                prev_off, prev_size = domains[agg][-1]
                domains[agg][-1] = (prev_off, prev_size + take)
            else:
                domains[agg].append((pos, take))
            owners.append((pos, pos + take, agg))
            pos += take
            remaining -= take
            if remaining == 0 and agg_idx < len(aggregators) - 1:
                agg_idx += 1
                remaining = share

    # Shuffle matrix: each rank's bytes overlap which domains?
    shuffle: dict[tuple[int, int], int] = {}
    for rank, segments in deposits.items():
        for seg_off, seg_size in segments:
            seg_end = seg_off + seg_size
            for dom_start, dom_end, agg in owners:
                overlap = min(seg_end, dom_end) - max(seg_off, dom_start)
                if overlap > 0 and rank != agg:
                    key = (rank, agg)
                    shuffle[key] = shuffle.get(key, 0) + overlap
    return _Plan(domains={a: d for a, d in domains.items() if d}, shuffle=shuffle)


def _shuffle_bytes(ctx, plan: _Plan, direction: str):
    """Move shuffle-phase bytes over the fabric (process generator)."""
    layer = ctx.layer
    flows = []
    for (rank, agg), nbytes in sorted(plan.shuffle.items()):
        if rank != ctx.rank:
            continue
        src = layer.node_for(rank if direction == "to_agg" else agg)
        dst = layer.node_for(agg if direction == "to_agg" else rank)
        if src == dst:
            continue
        flows.append(layer.fabric.transfer(src, dst, nbytes))
    if flows:
        yield from ctx.sim.gather(flows)


def _collective(ctx, mpifile, segments, op: str, num_aggregators: int | None):
    if num_aggregators is not None and num_aggregators < 1:
        raise MPIIOError("need at least one aggregator")
    state = getattr(ctx, "_collective_state", None)
    if state is None:
        state = CollectiveState()
        ctx._collective_state = state
    # All ranks share the context's barrier; they must also share the
    # CollectiveState, which lives on the shared barrier object.
    shared = getattr(ctx._barrier, "_collective_state", None)
    if shared is None:
        ctx._barrier._collective_state = state
    else:
        state = shared

    call_id = state.next_call(ctx.rank)
    state.deposit(call_id, ctx.rank, list(segments))
    yield from ctx.barrier()

    n_agg = num_aggregators or min(ctx.size, 8)
    plan = state.plan(call_id, n_agg)
    results = []
    if op == "write":
        yield from _shuffle_bytes(ctx, plan, "to_agg")
        yield from ctx.barrier()
        for offset, size in plan.domains.get(ctx.rank, []):
            result = yield from mpifile.write_at(offset, size)
            results.append(result)
    else:
        for offset, size in plan.domains.get(ctx.rank, []):
            result = yield from mpifile.read_at(offset, size)
            results.append(result)
        yield from ctx.barrier()
        yield from _shuffle_bytes(ctx, plan, "to_rank")
    yield from ctx.barrier()
    return results


def collective_write(ctx, mpifile, segments: list[Segment],
                     num_aggregators: int | None = None):
    """Two-phase collective write (process generator).

    Every rank must call this with its own segment list; returns the
    IOResults issued by this rank (non-aggregators return []).
    """
    return _collective(ctx, mpifile, segments, "write", num_aggregators)


def collective_read(ctx, mpifile, segments: list[Segment],
                    num_aggregators: int | None = None):
    """Two-phase collective read (process generator)."""
    return _collective(ctx, mpifile, segments, "read", num_aggregators)
