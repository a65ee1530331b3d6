"""§V.E.1 — metadata space overhead of the DMT.

Paper: with 6*4-byte entries and worst-case 4 KB requests, the DMT
needs at most S/4e6 records for an S-GB cache — 0.6 % of the cache
space, "which is negligible".

The reproduction computes the same analytic bound and measures the
actual DMT footprint after an all-4KB random write run.
"""

from __future__ import annotations

from ..cluster import run_workload
from ..units import KiB, MiB
from ..workloads import IORWorkload
from .common import testbed
from .harness import Experiment, ExperimentResult, Series, register

ENTRY_BYTES = 24  # 6 fields * 4 bytes, per §V.E.1


@register
class MetadataOverhead(Experiment):
    exp_id = "metadata"
    title = "DMT metadata space overhead (§V.E.1)"
    PROCESSES = 4
    default_scale = 1.0

    def measure(self, scale: float) -> ExperimentResult:
        request = 4 * KiB
        file_size = max(int(8 * MiB * scale), self.PROCESSES * request * 4)
        capacity = file_size  # everything cacheable: worst case
        spec = testbed(num_nodes=self.PROCESSES)
        workload = IORWorkload(
            self.PROCESSES, request, file_size, pattern="random", seed=37
        )
        result = run_workload(
            spec, workload, s4d=True,
            cache_capacity=capacity, phases=("write",),
        )
        middleware = result.cluster.middleware
        measured = middleware.metadata_bytes(ENTRY_BYTES)
        used = middleware.space.used
        measured_pct = 100.0 * measured / used if used else 0.0
        analytic_pct = 100.0 * ENTRY_BYTES / request
        return ExperimentResult(
            exp_id=self.exp_id,
            title=self.title,
            x_label="quantity",
            y_label="percent of cache space",
            series=[
                Series(
                    "overhead%",
                    ["analytic (4KB worst case)", "measured"],
                    [analytic_pct, measured_pct],
                )
            ],
            paper_claims=["metadata space overhead 0.6%, negligible"],
            notes=[
                f"DMT records: {len(middleware.dmt)}, "
                f"{measured} bytes over {used} cached bytes",
            ],
        )

    def check_shape(self, result: ExperimentResult) -> list[str]:
        failures = []
        analytic, measured = result.get("overhead%").y
        if abs(analytic - 0.586) > 0.05:
            failures.append(
                f"analytic bound {analytic:.3f}% differs from paper's 0.6%"
            )
        if measured > 1.0:
            failures.append(f"measured overhead {measured:.2f}% (>1%)")
        return failures
