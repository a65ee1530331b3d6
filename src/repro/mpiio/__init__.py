"""MPI-IO middleware layer.

The paper implements S4D-Cache "as an augmented module to [the] MPI-IO
library" (§III.A): application processes call MPI_File_open/read/write/
seek/close and the cache logic intercepts underneath.  The evaluation
(§V) issues independent requests only, and this package provides that
layer for the simulated cluster:

- :mod:`repro.mpiio.api` — the :class:`IOLayer` interception point,
  the pass-through :class:`DirectIO` implementation (stock MPI-IO over
  the OPFS), and per-rank :class:`MPIFile` handles with MPI-IO
  open/read/write/seek/close semantics;
- :mod:`repro.mpiio.job` — MPI ranks as simulated processes, barriers,
  and the job runner.
"""

from .api import DirectIO, FileHandle, IOLayer, MPIFile
from .job import MPIJob, RankContext

__all__ = [
    "DirectIO",
    "FileHandle",
    "IOLayer",
    "MPIFile",
    "MPIJob",
    "RankContext",
]
