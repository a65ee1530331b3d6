"""Client-side memory caching layer (the paper's future-work item).

§II.B: "SSDs are a complement of memory cache and can be served as an
extension of memory cache ... The integration of memory cache and
S4D-Cache will be an interesting topic for future study."

:class:`MemoryCacheLayer` is that study's substrate: a per-compute-node
RAM cache stacked as an :class:`~repro.mpiio.api.IOLayer` over any
other layer (stock DirectIO or the S4D middleware).  It is a classic
locality cache — LRU over fixed-size blocks, write-through — so
composing it with S4D-Cache shows how the two tiers split the work:
the RAM tier absorbs re-reads with temporal locality, the SSD tier
absorbs the random traffic the RAM tier cannot hold.

Consistency: per-node caches of a *shared* file are only coherent for
the access patterns the evaluated benchmarks use (disjoint per-rank
regions — the MPI-IO default consistency semantics without atomics);
a block is invalidated on any local write and reads insert fresh
copies, mirroring client-side caching in GPFS/Lustre with per-process
regions.
"""

from __future__ import annotations

import collections
import typing

from ..devices.base import OP_READ, OP_WRITE
from ..errors import ConfigError
from ..mpiio.api import FileHandle, IOLayer
from ..pfs import IOResult
from ..pfs.content import merge_stamp_segments
from ..sim.resources import PRIORITY_NORMAL
from ..units import parse_size

if typing.TYPE_CHECKING:  # pragma: no cover
    from ..sim import Simulator


class _NodeCache:
    """LRU block cache of one compute node."""

    def __init__(self, capacity_blocks: int):
        self.capacity_blocks = capacity_blocks
        #: (path, block_index) -> stamp segments for that block.
        self.blocks: "collections.OrderedDict[tuple, list]" = (
            collections.OrderedDict()
        )
        self.hits = 0
        self.misses = 0

    def get(self, key) -> list | None:
        block = self.blocks.get(key)
        if block is not None:
            self.blocks.move_to_end(key)
            self.hits += 1
        else:
            self.misses += 1
        return block

    def put(self, key, segments: list) -> None:
        self.blocks[key] = segments
        self.blocks.move_to_end(key)
        while len(self.blocks) > self.capacity_blocks:
            self.blocks.popitem(last=False)

    def invalidate(self, key) -> None:
        self.blocks.pop(key, None)


class MemoryCacheLayer(IOLayer):
    """Per-node RAM cache stacked over another I/O layer."""

    def __init__(
        self,
        sim: "Simulator",
        under: IOLayer,
        capacity: int | str = "64MB",
        block_size: int | str = "64KB",
        hit_time: float = 15e-6,
    ):
        self.sim = sim
        self.under = under
        self.block_size = parse_size(block_size)
        capacity_bytes = parse_size(capacity)
        if self.block_size < 1:
            raise ConfigError("block size must be positive")
        if capacity_bytes < self.block_size:
            raise ConfigError("memory cache smaller than one block")
        self.capacity_blocks = capacity_bytes // self.block_size
        self.hit_time = hit_time
        self._nodes: dict[str, _NodeCache] = {}

    # -- plumbing (delegate to the wrapped layer) -------------------------
    def _cache_for(self, rank: int) -> _NodeCache:
        node = self.under.node_for(rank)
        cache = self._nodes.get(node)
        if cache is None:
            cache = _NodeCache(self.capacity_blocks)
            self._nodes[node] = cache
        return cache

    # -- statistics ----------------------------------------------------------
    @property
    def hits(self) -> int:
        return sum(c.hits for c in self._nodes.values())

    @property
    def misses(self) -> int:
        return sum(c.misses for c in self._nodes.values())

    # -- IOLayer ---------------------------------------------------------
    def open(self, rank: int, path: str, size_hint: int):
        handle = yield from self.under.open(rank, path, size_hint)
        return handle

    def close(self, rank: int, handle: FileHandle):
        yield from self.under.close(rank, handle)

    def finalize(self):
        yield from self.under.finalize()

    def io(self, rank: int, handle: FileHandle, op: str, offset: int,
           size: int, priority: int = PRIORITY_NORMAL, ctx=None):
        if op == OP_WRITE:
            result = yield from self._write(rank, handle, offset, size,
                                            priority, ctx)
        else:
            result = yield from self._read(rank, handle, offset, size,
                                           priority, ctx)
        return result

    def _block_span(self, offset: int, size: int):
        first = offset // self.block_size
        last = (offset + size - 1) // self.block_size
        return first, last

    def _write(self, rank, handle, offset, size, priority, ctx=None):
        """Write-through: forward, then invalidate covered blocks."""
        result = yield from self.under.io(
            rank, handle, OP_WRITE, offset, size, priority, ctx=ctx
        )
        cache = self._cache_for(rank)
        first, last = self._block_span(offset, size)
        for block in range(first, last + 1):
            cache.invalidate((handle.path, block))
        return result

    def _read(self, rank, handle, offset, size, priority, ctx=None):
        """Serve whole-block hits from RAM; fill on miss."""
        cache = self._cache_for(rank)
        first, last = self._block_span(offset, size)
        blocks = {
            b: cache.get((handle.path, b)) for b in range(first, last + 1)
        }
        if all(v is not None for v in blocks.values()):
            yield self.sim.timeout(self.hit_time)
            segments = self._slice_segments(blocks, offset, size)
            return IOResult(
                op=OP_READ,
                path=handle.path,
                offset=offset,
                size=size,
                start_time=self.sim.now - self.hit_time,
                end_time=self.sim.now,
                servers_touched=0,
                segments=segments,
            )
        # Miss: fetch the full covering block range below, fill, slice.
        span_offset = first * self.block_size
        span_size = (last - first + 1) * self.block_size
        result = yield from self.under.io(
            rank, handle, OP_READ, span_offset, span_size, priority, ctx=ctx
        )
        for block in range(first, last + 1):
            block_start = block * self.block_size
            block_end = block_start + self.block_size
            segs = [
                (max(s, block_start), min(e, block_end), v)
                for s, e, v in result.segments
                if s < block_end and e > block_start
            ]
            cache.put((handle.path, block), segs)
        segments = [
            (max(s, offset), min(e, offset + size), v)
            for s, e, v in result.segments
            if s < offset + size and e > offset
        ]
        result.segments = segments
        result.offset = offset
        result.size = size
        return result

    @staticmethod
    def _slice_segments(blocks: dict, offset: int, size: int):
        clipped = []
        for block in sorted(blocks):
            for s, e, v in blocks[block]:
                s2, e2 = max(s, offset), min(e, offset + size)
                if s2 < e2:
                    clipped.append((s2, e2, v))
        return merge_stamp_segments(clipped)
