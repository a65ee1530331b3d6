"""Fig. 10 — MPI-Tile-IO throughput vs process count, stock vs S4D.

Paper: 10x10 elements per tile, 32 KB elements, 100-400 processes.
Claims: aggregated bandwidth +21-33 % for writes and +18-31 % for
reads; gains smaller than IOR because the nested-stride pattern "yields
better data locality than that of the IOR test".
"""

from __future__ import annotations

from ..units import KiB
from .common import StockVsS4D, scale_int, stock_and_s4d, testbed
from .harness import ExperimentResult, register
from ..workloads import TileIOWorkload


class _Fig10Base(StockVsS4D):
    #: Paper sweeps 100-400 ranks; scaled to stay tractable.
    PROCESS_COUNTS = [16, 36, 64, 100]
    ELEMENTS = 10
    ELEMENT_SIZE = 32 * KiB
    default_scale = 0.5
    x_label = "processes"

    def measure(self, scale: float) -> dict:
        elements = scale_int(self.ELEMENTS, scale, minimum=4)
        spec = testbed(num_nodes=32)
        points = {}
        for processes in self.PROCESS_COUNTS:
            workload = TileIOWorkload(
                processes,
                elements_x=elements,
                elements_y=elements,
                element_size=self.ELEMENT_SIZE,
                seed=29,
            )
            points[processes] = stock_and_s4d(spec, workload)
        return points

    def check_shape(self, result: ExperimentResult) -> list[str]:
        failures = []
        imp = result.improvements("stock", "s4d")
        if max(imp) < 10.0:
            failures.append(
                f"best improvement is {max(imp):.1f}% (<10%); paper "
                "reports 18-33%"
            )
        if min(imp) < -10.0:
            failures.append(f"S4D regressed by {min(imp):.1f}%")
        return failures


@register
class Fig10aWrite(_Fig10Base):
    exp_id = "fig10a"
    title = "MPI-Tile-IO write throughput vs process count"
    op = "write"
    PAPER_CLAIMS = ["write bandwidth +21-33% across 100-400 processes"]


@register
class Fig10bRead(_Fig10Base):
    exp_id = "fig10b"
    title = "MPI-Tile-IO read throughput vs process count (2nd run)"
    op = "read"
    PAPER_CLAIMS = ["read bandwidth +18-31% across 100-400 processes"]
