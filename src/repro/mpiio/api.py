"""The MPI-IO API surface and its interception point.

:class:`IOLayer` is the seam where S4D-Cache plugs in: the stock stack
uses :class:`DirectIO` (every request goes to the OPFS); the cached
stack substitutes :class:`~repro.core.middleware.S4DCacheMiddleware`,
which implements the same five intercepted operations the paper's
§IV.B lists (open/read/write/seek/close).

Applications hold :class:`MPIFile` handles, which carry the individual
file pointer MPI-IO mandates per process.
"""

from __future__ import annotations

import abc
import dataclasses
import typing

from ..devices.base import OP_READ, OP_WRITE
from ..errors import MPIIOError
from ..network import Fabric
from ..pfs import PFS, IOResult, PFSClient, PFSFile
from ..sim.resources import PRIORITY_NORMAL

if typing.TYPE_CHECKING:  # pragma: no cover
    from ..obs import TraceContext
    from ..sim import Simulator


@dataclasses.dataclass(slots=True)
class FileHandle:
    """Middleware-level state for one open logical file (shared by all
    ranks that opened the same path through the same layer)."""

    path: str
    size_hint: int
    open_count: int = 0
    #: The original PFS file, resolved by every open so that a request
    #: needs no namespace lookup.
    pfs_file: PFSFile | None = None
    #: Layer-private state (e.g. the S4D middleware hangs cache file
    #: and table references here).
    private: dict = dataclasses.field(default_factory=dict)


class IOLayer(abc.ABC):
    """The interception interface under MPI-IO.

    All methods are simulated-process generators (use ``yield from``).
    ``rank`` identifies the calling process; layers may use it to look
    up the rank's compute node / network endpoint.

    ``ctx`` on :meth:`io` is the request's observability context
    (:class:`~repro.obs.TraceContext`); layers thread it down the
    stack and open spans on it.  It defaults to None (no tracing), and
    the ``obs`` tracer hands out contexts only when one is attached.
    """

    #: The attached tracer, or None; :meth:`repro.obs.Tracer.bind`
    #: sets it.
    obs = None

    @abc.abstractmethod
    def open(self, rank: int, path: str, size_hint: int):
        """Open (creating if necessary) ``path``; returns a FileHandle."""

    @abc.abstractmethod
    def io(self, rank: int, handle: FileHandle, op: str, offset: int, size: int,
           priority: int = PRIORITY_NORMAL,
           ctx: "TraceContext | None" = None):
        """Perform one read/write; returns an :class:`IOResult`."""

    @abc.abstractmethod
    def close(self, rank: int, handle: FileHandle):
        """Close the handle for this rank."""

    def finalize(self):
        """Job teardown hook (e.g. stop helper threads).

        Default: nothing to do; must remain a generator.
        """
        return
        yield  # pragma: no cover


class DirectIO(IOLayer):
    """Stock MPI-IO: every request goes straight to the original PFS.

    One PFS client exists per compute node; ranks map to nodes round
    robin (``rank % num_nodes``), mirroring the testbed's 32 compute
    nodes.
    """

    def __init__(
        self,
        sim: "Simulator",
        pfs: PFS,
        fabric: Fabric,
        num_nodes: int = 32,
    ):
        if num_nodes < 1:
            raise MPIIOError(f"need at least one compute node: {num_nodes}")
        self.sim = sim
        self.pfs = pfs
        self.fabric = fabric
        self.num_nodes = num_nodes
        self._clients = [
            PFSClient(sim, pfs, fabric, f"node{i}") for i in range(num_nodes)
        ]
        self._handles: dict[str, FileHandle] = {}

    def client_for(self, rank: int) -> PFSClient:
        return self._clients[rank % self.num_nodes]

    @property
    def clients(self) -> list[PFSClient]:
        """All per-node PFS clients (telemetry attachment point)."""
        return self._clients

    def node_for(self, rank: int) -> str:
        return self.client_for(rank).endpoint

    # -- IOLayer ----------------------------------------------------------
    def open(self, rank: int, path: str, size_hint: int):
        handle = self._handles.get(path)
        if handle is None:
            handle = FileHandle(path, size_hint)
            self._handles[path] = handle
        handle.open_count += 1
        handle.pfs_file = self.pfs.open_or_create(path, size_hint)
        return handle
        yield  # pragma: no cover - open is instantaneous in DirectIO

    def io(self, rank: int, handle: FileHandle, op: str, offset: int, size: int,
           priority: int = PRIORITY_NORMAL,
           ctx: "TraceContext | None" = None):
        # Not a generator itself: it hands back the client's request
        # generator (as PFSClient.read/write hand back ``_io``'s), so
        # the request runs one frame shallower.
        client = self._clients[rank % self.num_nodes]
        if op == OP_READ:
            return client.read(handle.pfs_file, offset, size, priority,
                               ctx=ctx)
        if op == OP_WRITE:
            return client.write(handle.pfs_file, offset, size, priority,
                                ctx=ctx)
        raise MPIIOError(f"unknown op {op!r}")

    def close(self, rank: int, handle: FileHandle):
        if handle.open_count <= 0:
            raise MPIIOError(f"close of unopened file {handle.path!r}")
        handle.open_count -= 1
        return
        yield  # pragma: no cover


class MPIFile:
    """A rank's open file: MPI-IO calls with an individual file pointer.

    Mirrors the functions §IV.B modifies: open (constructor via
    :meth:`open`), read, write, seek, close — plus the explicit-offset
    variants (read_at/write_at) MPI-IO also offers.
    """

    def __init__(self, layer: IOLayer, rank: int, handle: FileHandle):
        self.layer = layer
        self.rank = rank
        self.handle = handle
        self.position = 0
        self._open = True
        self.results: list[IOResult] = []

    # -- factory ---------------------------------------------------------
    @classmethod
    def open(cls, layer: IOLayer, rank: int, path: str, size_hint: int):
        """MPI_File_open equivalent (process generator)."""
        handle = yield from layer.open(rank, path, size_hint)
        return cls(layer, rank, handle)

    # -- MPI-IO operations ---------------------------------------------
    def read(self, size: int):
        """MPI_File_read: read at the file pointer, advancing it."""
        result = yield from self.read_at(self.position, size)
        self.position += size
        return result

    def write(self, size: int):
        """MPI_File_write: write at the file pointer, advancing it."""
        result = yield from self.write_at(self.position, size)
        self.position += size
        return result

    # An untraced request makes no tracer call: the context is asked
    # for, and finished, only when the layer has a tracer.
    def read_at(self, offset: int, size: int):
        """MPI_File_read_at: explicit offset, pointer unchanged."""
        if not self._open:
            self._check_open()
        layer = self.layer
        ctx = None
        if layer.obs is not None:
            ctx = layer.obs.request(self.rank, OP_READ, self.handle.path,
                                    offset, size)
        try:
            result = yield from layer.io(self.rank, self.handle, OP_READ,
                                         offset, size, ctx=ctx)
        finally:
            if ctx is not None:
                ctx.finish()
        self.results.append(result)
        return result

    def write_at(self, offset: int, size: int):
        """MPI_File_write_at: explicit offset, pointer unchanged."""
        if not self._open:
            self._check_open()
        layer = self.layer
        ctx = None
        if layer.obs is not None:
            ctx = layer.obs.request(self.rank, OP_WRITE, self.handle.path,
                                    offset, size)
        try:
            result = yield from layer.io(self.rank, self.handle, OP_WRITE,
                                         offset, size, ctx=ctx)
        finally:
            if ctx is not None:
                ctx.finish()
        self.results.append(result)
        return result

    def seek(self, offset: int, whence: str = "set") -> int:
        """MPI_File_seek: move the individual file pointer."""
        self._check_open()
        if whence == "set":
            target = offset
        elif whence == "cur":
            target = self.position + offset
        else:
            raise MPIIOError(f"unknown whence {whence!r}")
        if target < 0:
            raise MPIIOError(f"seek to negative offset {target}")
        self.position = target
        return self.position

    def close(self):
        """MPI_File_close (process generator)."""
        self._check_open()
        yield from self.layer.close(self.rank, self.handle)
        self._open = False

    # -- bookkeeping -------------------------------------------------------
    @property
    def is_open(self) -> bool:
        return self._open

    def _check_open(self) -> None:
        """Raise unless the file is open (request paths test ``_open``
        inline and call this only to raise)."""
        if not self._open:
            raise MPIIOError(
                f"operation on closed file {self.handle.path!r} (rank {self.rank})"
            )
