"""PVFS2-like parallel file system.

Files are striped across ``M`` file servers round-robin with a fixed
stripe size (§III.B's data placement assumption).  Two independent PFS
instances exist in an S4D-Cache deployment: the OPFS over HDD-backed
DServers and the CPFS over SSD-backed CServers.

Layers:

- :mod:`repro.pfs.layout` — pure striping math (sub-request splitting,
  Eq. 6 server counts, Table II maximum sub-request sizes).
- :mod:`repro.pfs.server` — a file server: device + priority queue.
- :mod:`repro.pfs.filesystem` — namespace, per-server space allocation.
- :mod:`repro.pfs.client` — split/issue/gather request execution over
  the network fabric.
- :mod:`repro.pfs.content` — write-stamp content tracking used to
  verify end-to-end data consistency in tests.
"""

from .client import IOResult, PFSClient
from .filesystem import PFS, PFSFile, PFSSpec
from .layout import (
    SubRequest,
    involved_servers,
    involved_servers_paper,
    max_subrequest_paper,
    max_subrequest_size,
    split_request,
)
from .server import FileServer

__all__ = [
    "PFS",
    "FileServer",
    "IOResult",
    "PFSClient",
    "PFSFile",
    "PFSSpec",
    "SubRequest",
    "involved_servers",
    "involved_servers_paper",
    "max_subrequest_paper",
    "max_subrequest_size",
    "split_request",
]
