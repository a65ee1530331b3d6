"""Coalescing byte-oracle: same bytes on every device, fewer messages.

Two layers of proof for ``coalesce_subrequests``:

- a hypothesis property over the pure layout math — the coalesced plan
  covers exactly the same (server, local byte) set as the fragment
  plan, with no overlaps and strictly fewer-or-equal messages;
- an end-to-end simulation — a write/read campaign returns the same
  content (stamps via ``pfs.content``) and the same per-server byte
  totals as the per-fragment reference schedule (the client with
  ``coalesce_subrequests`` patched to the identity), while putting
  fewer transfers on the network.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices import SSD, SSDSpec
from repro.network import Fabric, NetworkSpec
from repro.pfs import PFS, FileServer, PFSClient, PFSSpec
from repro.pfs.layout import coalesce_subrequests, split_request
from repro.sim import Simulator
from repro.units import GiB, KiB, MiB


def _covered(subs):
    """The exact (server, local byte) set a plan touches.

    Held as each server's sorted ``[start, end)`` runs, merged wherever
    they overlap or touch: two plans touch the same bytes exactly when
    these are equal, without a set entry per byte.
    """
    pieces: dict[int, list[tuple[int, int]]] = {}
    for sub in subs:
        if sub.length:
            pieces.setdefault(sub.server, []).append(
                (sub.local_offset, sub.local_offset + sub.length))
    runs = {}
    for server, spans in pieces.items():
        merged: list[list[int]] = []
        for start, end in sorted(spans):
            if merged and start <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], end)
            else:
                merged.append([start, end])
        runs[server] = merged
    return runs


@settings(max_examples=200, deadline=None)
@given(
    offset=st.integers(min_value=0, max_value=1 << 20),
    size=st.integers(min_value=1, max_value=1 << 20),
    stripe=st.sampled_from([512, 4096, 65536]),
    servers=st.integers(min_value=1, max_value=9),
)
def test_coalesced_plan_covers_identical_bytes(offset, size, stripe, servers):
    subs = split_request(offset, size, stripe, servers)
    merged = coalesce_subrequests(subs)
    # Same bytes on the same servers...
    assert _covered(merged) == _covered(subs)
    # ...with no double-coverage (total length is conserved exactly)...
    assert sum(s.length for s in merged) == sum(s.length for s in subs)
    assert sum(s.length for s in merged) == size
    # ...in fewer-or-equal wire messages, never more than one run per
    # server beyond the fragment count floor.
    assert len(merged) <= len(subs)
    assert len(merged) >= len({s.server for s in subs})


@settings(max_examples=100, deadline=None)
@given(
    offset=st.integers(min_value=0, max_value=1 << 20),
    size=st.integers(min_value=1, max_value=1 << 20),
    servers=st.integers(min_value=1, max_value=9),
)
def test_coalescing_is_idempotent(offset, size, servers):
    merged = coalesce_subrequests(split_request(offset, size, 4096, servers))
    assert coalesce_subrequests(merged) == merged


def build(num_servers=4, stripe=64 * KiB, seed=7):
    sim = Simulator(seed=seed)
    fabric = Fabric(sim, NetworkSpec())
    servers = [
        FileServer(sim, f"s{i}", SSD(SSDSpec(capacity_bytes=GiB)))
        for i in range(num_servers)
    ]
    pfs = PFS(sim, "pfs", servers, PFSSpec(stripe_size=stripe))
    client = PFSClient(sim, pfs, fabric, "client0")
    return sim, fabric, pfs, client


def _campaign():
    """Write then read a multi-round request pattern; return evidence."""
    sim, fabric, pfs, client = build()
    handle = pfs.create("/f", 64 * MiB)

    def body():
        stamps = []
        # 1 MiB over 4 servers x 64 KiB stripes = 16 fragments, 4 per
        # server — the shape coalescing collapses; plus a small request
        # below the threshold, and an unaligned spanning one.
        for offset, size in [
            (0, MiB), (MiB, 32 * KiB), (3 * MiB + 5 * KiB, MiB),
        ]:
            res = yield from client.write(handle, offset, size)
            stamps.append(res.stamp)
        reads = []
        for offset, size in [
            (0, MiB), (MiB, 32 * KiB), (3 * MiB + 5 * KiB, MiB),
            (512 * KiB, MiB),  # crosses written/unwritten regions
        ]:
            res = yield from client.read(handle, offset, size)
            reads.append(res.segments)
        return stamps, reads

    stamps, reads = sim.run_process(body())
    # Stamps come from a process-global mint, so their absolute values
    # depend on how many writes ran before this campaign; normalise to
    # write order (None = hole) so campaigns compare structurally.
    order = {stamp: i for i, stamp in enumerate(stamps)}
    reads = [
        [(start, end, order.get(stamp) if stamp is not None else None)
         for start, end, stamp in segments]
        for segments in reads
    ]
    served = [s.device.total_bytes for s in pfs.servers]
    return {
        "stamps": [order[stamp] for stamp in stamps],
        "reads": reads,
        "per_server_bytes": served,
        "transfers": fabric.total_transfers,
        "network_bytes": fabric.total_bytes,
        "issued": client.subrequests_issued,
        "merged": client.subrequests_coalesced,
    }


def test_end_to_end_bytes_identical_messages_fewer():
    # The per-fragment reference: every stripe fragment on the wire.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("repro.pfs.client.coalesce_subrequests", lambda subs: subs)
        off = _campaign()
    on = _campaign()
    # Byte oracle: identical content stamps and segments either way.
    assert on["stamps"] == off["stamps"]
    assert on["reads"] == off["reads"]
    # Identical bytes through every device.
    assert on["per_server_bytes"] == off["per_server_bytes"]
    # Fewer wire messages, and the merge counter accounts for them.
    assert off["merged"] == 0
    assert on["merged"] > 0
    assert on["issued"] == off["issued"] - on["merged"]
    assert on["transfers"] < off["transfers"]
    # Payload bytes shrink only by the per-message headers saved.
    assert on["network_bytes"] < off["network_bytes"]


def test_small_requests_bypass_coalescing():
    """Requests touching each server at most once are left untouched."""
    sim, fabric, pfs, client = build()
    handle = pfs.create("/f", 16 * MiB)

    def body():
        return (yield from client.write(handle, 0, 128 * KiB))

    sim.run_process(body())
    assert client.subrequests_coalesced == 0
    assert client.subrequests_issued == 2  # 128 KiB / 64 KiB stripes
