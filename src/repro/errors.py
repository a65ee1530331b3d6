"""Exception hierarchy for the repro library.

All library-raised exceptions derive from :class:`ReproError` so callers
can catch everything from this package with a single ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by this library."""


class ConfigError(ReproError):
    """An invalid or inconsistent configuration value was supplied."""


class SimulationError(ReproError):
    """The discrete-event simulation engine detected an illegal state."""


class ProcessKilled(SimulationError):
    """Raised inside a simulated process when it is externally killed."""


class DeviceError(ReproError):
    """A storage device model rejected a request."""


class NetworkError(ReproError):
    """The network fabric rejected a transfer."""


class PFSError(ReproError):
    """Parallel-file-system level failure (bad path, bad offset, ...)."""


class FileNotFound(PFSError):
    """The named file does not exist in the parallel file system."""

    def __init__(self, path: str):
        super().__init__(f"no such file in PFS: {path!r}")
        self.path = path


class FileExists(PFSError):
    """The named file already exists and exclusive creation was asked."""

    def __init__(self, path: str):
        super().__init__(f"file already exists in PFS: {path!r}")
        self.path = path


class KVStoreError(ReproError):
    """Key-value store (DMT substrate) failure."""


class KVStoreClosed(KVStoreError):
    """Operation attempted on a closed store."""


class MPIIOError(ReproError):
    """MPI-IO middleware usage error (bad handle, closed file, ...)."""


class CacheError(ReproError):
    """S4D-Cache internal error (space accounting, mapping corruption)."""


class WorkloadError(ReproError):
    """A workload generator was given impossible parameters."""


class ExperimentError(ReproError):
    """An experiment driver failed to produce its table/figure."""


class ParallelError(ReproError):
    """The parallel fan-out runner was misused (bad job count, ...)."""


class WorkerCrashError(ParallelError):
    """A fan-out worker crashed; carries the failing task's identity.

    ``task_id`` names the configuration that failed (e.g. the
    experiment id), ``worker_traceback`` is the worker-side traceback
    text — both also appear in ``str(error)`` so a CLI run surfaces
    the failing config without any extra handling.
    """

    def __init__(self, task_id: str, worker_traceback: str = ""):
        self.task_id = task_id
        self.worker_traceback = worker_traceback
        detail = f"\n{worker_traceback}" if worker_traceback else ""
        super().__init__(f"worker crashed on task {task_id!r}{detail}")
