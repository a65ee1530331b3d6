"""repro — a full reproduction of S4D-Cache (ICDCS 2014).

S4D-Cache employs a small set of SSD-based file servers (CServers) as a
*selective* cache in front of conventional HDD-based file servers
(DServers) in a parallel I/O system.  This package reproduces the paper
end to end on a discrete-event simulated cluster:

- :mod:`repro.sim` — discrete-event simulation engine.
- :mod:`repro.devices` — HDD/SSD device models + seek-profile profiler.
- :mod:`repro.network` — GigE-like link contention model.
- :mod:`repro.pfs` — PVFS2-like striped parallel file system.
- :mod:`repro.kvstore` — Berkeley-DB-like persistent hash KV store.
- :mod:`repro.mpiio` — MPI-IO middleware (ranks, File API, barriers).
- :mod:`repro.core` — the S4D-Cache contribution: cost model, CDT/DMT,
  Data Identifier, Redirector (Algorithm 1), Rebuilder, policies.
- :mod:`repro.workloads` — IOR / HPIO / MPI-Tile-IO generators.
- :mod:`repro.iosig` — request tracing and pattern analysis.
- :mod:`repro.cluster` — cluster builder + workload runner.
- :mod:`repro.experiments` — drivers regenerating every table/figure.

Quickstart::

    from repro.cluster import ClusterSpec, run_workload
    from repro.workloads import IORWorkload

    spec = ClusterSpec.paper_testbed()
    workload = IORWorkload(processes=8, request_size="16KB",
                           file_size="2GB", pattern="random",
                           requests_per_rank=128)
    stock = run_workload(spec, workload, s4d=False)
    s4d = run_workload(spec, workload, s4d=True)
    print(stock.write_bandwidth, s4d.write_bandwidth)

Or from a shell: ``python -m repro compare`` /
``python -m repro.experiments``.
"""

from . import errors, units
from ._version import __version__

__all__ = ["__version__", "errors", "units"]
