"""Module-level picklable workers for the CLI fan-out paths.

The spawn start method pickles workers by qualified name, so every
worker here must stay a plain module-level function.  Workers rebuild
their simulation from the pickled payload (seeded specs and workload
parameters) and return **summaries**, never live simulator objects:
:class:`~repro.cluster.runner.RunResult` drags the whole cluster along
and does not pickle, so the compare worker reduces it to the bandwidth
and cache-metric numbers the CLI actually prints.
"""

from __future__ import annotations

import dataclasses
import typing

if typing.TYPE_CHECKING:  # pragma: no cover
    from ..core.metrics import CacheMetrics


@dataclasses.dataclass
class CompareSummary:
    """The picklable slice of a RunResult the compare CLI prints."""

    write_bandwidth: float
    read_bandwidth: float
    metrics: "CacheMetrics | None"


def run_compare_task(payload) -> CompareSummary:
    """Worker: run one stock-or-S4D campaign from CLI-style args.

    ``payload`` is ``(namespace, s4d)`` where ``namespace`` is the
    parsed argparse namespace (plain attributes, pickles fine); the
    workload and cluster are rebuilt worker-side from it, so both the
    serial and parallel compare paths construct identical simulations.
    """
    from ..cliutil import build_workload, spec_from
    from ..cluster import run_workload

    args, s4d = payload
    workload = build_workload(args)
    spec = spec_from(args, workload.processes)
    result = run_workload(spec, workload, s4d=s4d)
    return CompareSummary(
        write_bandwidth=result.write_bandwidth,
        read_bandwidth=result.read_bandwidth,
        metrics=result.metrics if s4d else None,
    )
