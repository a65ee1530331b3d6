"""Benchmark workload generators.

Re-implementations of the access patterns of the three benchmarks the
paper evaluates with (§V.A):

- :class:`IORWorkload` — IOR: each of n processes owns 1/n of a shared
  file and issues fixed-size requests at sequential or random offsets;
- :class:`HPIOWorkload` — HPIO: noncontiguous regions controlled by
  region count / size / spacing;
- :class:`TileIOWorkload` — MPI-Tile-IO: a 2D dense dataset accessed
  tile-per-process with nested-stride rows;
- :class:`SyntheticMixWorkload` — a parameterised mix of sequential
  and random streams for ablations and examples.
"""

from .base import Workload
from .hpio import HPIOWorkload
from .ior import IORWorkload
from .synthetic import SyntheticMixWorkload
from .tileio import TileIOWorkload
from .trace import TraceWorkload, export_trace, parse_trace

__all__ = [
    "HPIOWorkload",
    "IORWorkload",
    "SyntheticMixWorkload",
    "TileIOWorkload",
    "TraceWorkload",
    "Workload",
    "export_trace",
    "parse_trace",
]
