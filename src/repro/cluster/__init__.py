"""Cluster assembly: from a spec to a runnable simulated testbed.

- :mod:`repro.cluster.spec` — :class:`ClusterSpec`, including the
  paper's testbed configuration (8 DServers, 4 CServers, 32 compute
  nodes, GigE, PVFS2 64KB stripes).
- :mod:`repro.cluster.calibrate` — offline profiling of the simulated
  stack into :class:`~repro.core.cost_model.CostParams` (the paper's
  §III.B profiling step).
- :mod:`repro.cluster.builder` — builds devices, fabric, both PFSs and
  the chosen I/O layer (stock DirectIO or S4D-Cache).
- :mod:`repro.cluster.runner` — runs workloads and reports the
  bandwidth numbers the paper's figures plot.
"""

from .builder import Cluster, build_cluster
from .calibrate import calibrate_cost_params
from .runner import RunResult, run_workload
from .spec import ClusterSpec

__all__ = [
    "Cluster",
    "ClusterSpec",
    "RunResult",
    "build_cluster",
    "calibrate_cost_params",
    "run_workload",
]
