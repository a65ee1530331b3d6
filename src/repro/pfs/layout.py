"""Striping layout math (pure functions).

A file is placed across ``M`` servers round-robin with stripe size
``str``: global stripe ``k`` lives on server ``k % M`` at local stripe
slot ``k // M``.  This module provides:

- :func:`split_request` — the exact sub-requests a parallel request
  decomposes into (used by the simulated PFS client);
- :func:`involved_servers` / :func:`involved_servers_paper` — the
  actual server count vs the paper's Eq. 6 (which counts one extra
  server when a request ends exactly on a stripe boundary);
- :func:`max_subrequest_size` / :func:`max_subrequest_paper` — the
  actual maximum sub-request size vs the closed form of Table II /
  Fig. 4 used inside the cost model.
"""

from __future__ import annotations

import dataclasses
import math

from ..errors import PFSError


def _invalid(offset: int, size: int, stripe: int, servers: int) -> PFSError:
    """The error for arguments that fail a layout function's guard.

    Each function guards inline (one comparison chain, no call) and
    builds its error here only when the guard trips.
    """
    if stripe <= 0:
        return PFSError(f"stripe size must be positive: {stripe}")
    if servers <= 0:
        return PFSError(f"server count must be positive: {servers}")
    if offset < 0:
        return PFSError(f"negative file offset: {offset}")
    return PFSError(f"request size must be positive: {size}")


@dataclasses.dataclass(slots=True)
class SubRequest:
    """One server's share of a parallel request.

    ``local_offset`` is relative to the file's region on that server
    (stripe slot ``k // M`` times stripe size, plus the intra-stripe
    offset); the file system adds the file's base address later.
    Built once per request fragment and never mutated.
    """

    server: int
    local_offset: int
    length: int
    file_offset: int


def split_request(
    offset: int, size: int, stripe: int, servers: int
) -> list[SubRequest]:
    """Decompose a file request into per-server sub-requests.

    Contiguous runs on the same server are merged (adjacent stripe
    slots on one server are not contiguous locally unless M == 1, so
    merging only happens for M == 1).
    """
    if offset < 0 or size <= 0 or stripe <= 0 or servers <= 0:
        raise _invalid(offset, size, stripe, servers)
    subs: list[SubRequest] = []
    pos = offset
    end = offset + size
    while pos < end:
        k = pos // stripe  # global stripe index
        stripe_end = (k + 1) * stripe
        seg_end = min(end, stripe_end)
        server = k % servers
        local = (k // servers) * stripe + (pos - k * stripe)
        if subs and subs[-1].server == server and (
            subs[-1].local_offset + subs[-1].length == local
        ):
            prev = subs[-1]
            subs[-1] = SubRequest(
                server, prev.local_offset, prev.length + (seg_end - pos),
                prev.file_offset,
            )
        else:
            subs.append(SubRequest(server, local, seg_end - pos, pos))
        pos = seg_end
    return subs


def coalesce_subrequests(subs: list[SubRequest]) -> list[SubRequest]:
    """Merge each server's locally-contiguous stripe fragments.

    A request spanning more than ``M`` stripes leaves every server with
    several fragments that are *adjacent in the server's local address
    space* (consecutive stripe slots).  The stock client ships each
    fragment as its own network message; merging a contiguous run into
    one sub-request is ROMIO-style per-server-round coalescing — same
    bytes, same device addresses, fewer messages.

    The merged list preserves the original round-robin issue order by
    each run's first fragment (``file_offset``), so issue order stays
    deterministic.  Input order within one server is assumed ascending
    in ``local_offset`` (what :func:`split_request` produces).
    """
    if len(subs) <= 1:
        return subs
    runs: dict[int, SubRequest] = {}  # server -> open run
    merged: list[SubRequest] = []
    for sub in subs:
        run = runs.get(sub.server)
        if run is not None and run.local_offset + run.length == sub.local_offset:
            runs[sub.server] = SubRequest(
                run.server, run.local_offset, run.length + sub.length,
                run.file_offset,
            )
        else:
            if run is not None:
                merged.append(run)
            runs[sub.server] = sub
    merged.extend(runs.values())
    merged.sort(key=lambda s: s.file_offset)
    return merged


def involved_servers(offset: int, size: int, stripe: int, servers: int) -> int:
    """Actual number of distinct servers touched by the request."""
    if offset < 0 or size <= 0 or stripe <= 0 or servers <= 0:
        raise _invalid(offset, size, stripe, servers)
    first = offset // stripe
    last = (offset + size - 1) // stripe
    return min(last - first + 1, servers)


def involved_servers_paper(
    offset: int, size: int, stripe: int, servers: int
) -> int:
    """Eq. 6 verbatim: ``m = E - B + 1`` capped at ``M``.

    ``E = floor((f + r) / str)`` counts one extra stripe when the
    request ends exactly on a stripe boundary; the cost model uses this
    form to stay faithful to the paper.
    """
    if offset < 0 or size <= 0 or stripe <= 0 or servers <= 0:
        raise _invalid(offset, size, stripe, servers)
    begin = offset // stripe
    end = (offset + size) // stripe
    m = end - begin + 1
    return m if m < servers else servers


def max_subrequest_size(
    offset: int, size: int, stripe: int, servers: int
) -> int:
    """Actual maximum per-server byte count (ground truth for Table II)."""
    totals: dict[int, int] = {}
    for sub in split_request(offset, size, stripe, servers):
        totals[sub.server] = totals.get(sub.server, 0) + sub.length
    return max(totals.values())


def max_subrequest_paper(
    offset: int, size: int, stripe: int, servers: int
) -> int:
    """Table II closed form for ``s_m`` (with Fig. 4's four cases).

    Uses the paper's ``B = floor(f/str)``, ``E = floor((f+r)/str)``,
    ``delta = E - B``, beginning fragment ``b = str - f % str`` and
    ending fragment ``e = (f + r) % str``.
    """
    if offset < 0 or size <= 0 or stripe <= 0 or servers <= 0:
        raise _invalid(offset, size, stripe, servers)
    f, r, m = offset, size, servers
    begin = f // stripe
    end = (f + r) // stripe
    delta = end - begin
    frag_b = stripe - f % stripe
    frag_e = (f + r) % stripe
    if delta == 0:
        return r
    full = math.ceil(delta / m)
    if delta % m == 0:
        return max(frag_b + frag_e + (full - 1) * stripe, full * stripe)
    if delta % m == 1:
        return max(frag_b + (full - 1) * stripe, frag_e + (full - 1) * stripe)
    return full * stripe
