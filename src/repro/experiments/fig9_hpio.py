"""Fig. 9 — HPIO throughput vs region spacing, stock vs S4D.

Paper: 16 processes, region count 4096, region size 8 KB, spacing
0-4 KB (0 == contiguous/sequential).  Claims: improvement 18/28/30/33 %
as spacing grows; gains smaller than IOR's because HPIO's access is
noncontiguous but "not as random as the IOR benchmark".
"""

from __future__ import annotations

from ..units import KiB
from .common import StockVsS4D, scale_int, stock_and_s4d, testbed
from .harness import ExperimentResult, register
from ..workloads import HPIOWorkload


class _Fig9Base(StockVsS4D):
    SPACINGS = [0, 1 * KiB, 2 * KiB, 4 * KiB]
    PROCESSES = 8
    REGION_SIZE = 8 * KiB
    REGION_COUNT = 1024  # paper: 4096; scaled via `scale`
    default_scale = 0.5
    x_label = "region spacing (KB)"

    def measure(self, scale: float) -> dict:
        region_count = scale_int(self.REGION_COUNT, scale, minimum=64)
        spec = testbed(num_nodes=self.PROCESSES)
        points = {}
        for spacing in self.SPACINGS:
            workload = HPIOWorkload(
                self.PROCESSES,
                region_count=region_count,
                region_size=self.REGION_SIZE,
                region_spacing=spacing,
                seed=23,
            )
            points[spacing // KiB] = stock_and_s4d(spec, workload)
        return points

    def check_shape(self, result: ExperimentResult) -> list[str]:
        failures = []
        imp = result.improvements("stock", "s4d")
        # Noncontiguous cases benefit meaningfully.
        if imp[-1] < 10.0:
            failures.append(
                f"improvement at max spacing is {imp[-1]:.1f}% (<10%)"
            )
        # Benefit grows (or at least does not shrink a lot) with spacing.
        if imp[-1] < imp[0] - 10.0:
            failures.append(
                f"improvement shrank with spacing: {imp[0]:.1f}% -> "
                f"{imp[-1]:.1f}%"
            )
        if min(imp) < -10.0:
            failures.append(f"S4D regressed by {min(imp):.1f}%")
        return failures


@register
class Fig9aWrite(_Fig9Base):
    exp_id = "fig9a"
    title = "HPIO write throughput vs region spacing (stock vs S4D)"
    op = "write"
    PAPER_CLAIMS = [
        "write improvement 18/28/30/33% for spacing 0/1/2/4KB",
        "gains smaller than IOR (HPIO less random)",
    ]


@register
class Fig9bRead(_Fig9Base):
    exp_id = "fig9b"
    title = "HPIO read throughput vs region spacing (stock vs S4D, 2nd run)"
    op = "read"
    PAPER_CLAIMS = ["read trend similar to write (Fig. 9b)"]
