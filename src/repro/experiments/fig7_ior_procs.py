"""Fig. 7 — IOR throughput vs number of processes, stock vs S4D.

Paper setup: 16-128 processes, 16 KB requests, disjoint regions per
process.  Claims: write improvement 35.4-49.5 % at every process
count; absolute bandwidth decreases as processes increase (more
competition per file server); read behaves similarly.
"""

from __future__ import annotations

from ..units import KiB
from .common import (
    StockVsS4D,
    campaign_rpr,
    ior_campaign,
    stock_and_s4d,
    testbed,
)
from .harness import ExperimentResult, register


class _Fig7Base(StockVsS4D):
    #: Paper sweeps 16..128; scaled to stay tractable in pure Python.
    #: Starting at the server count keeps every point in the paper's
    #: "competition" regime (processes >= file servers).
    PROCESS_COUNTS = [8, 16, 24, 32]
    REQUEST = 16 * KiB
    INSTANCES = 5
    SEQUENTIAL = 3
    default_scale = 0.5
    x_label = "processes"

    def measure(self, scale: float) -> dict:
        points = {}
        for processes in self.PROCESS_COUNTS:
            spec = testbed(num_nodes=min(processes, 32))
            instances = ior_campaign(
                processes, self.REQUEST,
                instances=self.INSTANCES, sequential=self.SEQUENTIAL,
                requests_per_rank=campaign_rpr(scale),
            )
            points[processes] = stock_and_s4d(
                spec, instances, phases=("interleaved",)
            )
        return points

    def check_shape(self, result: ExperimentResult) -> list[str]:
        failures = []
        imp = result.improvements("stock", "s4d")
        for processes, improvement in zip(self.PROCESS_COUNTS, imp):
            if improvement < 10.0:
                failures.append(
                    f"improvement at {processes} processes is "
                    f"{improvement:.1f}% (<10%)"
                )
        # Per-process competition: once processes far outnumber the
        # eight servers, bandwidth must stop growing (the paper sees
        # it decrease from 16 to 128 processes).
        stock = result.get("stock").y
        if stock[-1] > 1.35 * stock[1]:
            failures.append(
                "stock bandwidth kept growing between "
                f"{self.PROCESS_COUNTS[1]} and {self.PROCESS_COUNTS[-1]} "
                "processes; expected competition to flatten/shrink it"
            )
        return failures


@register
class Fig7aWrite(_Fig7Base):
    exp_id = "fig7a"
    title = "IOR write throughput vs process count (stock vs S4D)"
    op = "write"
    PAPER_CLAIMS = [
        "write improvement 35.4-49.5% across 16-128 processes",
        "absolute bandwidth decreases as processes increase",
    ]


@register
class Fig7bRead(_Fig7Base):
    exp_id = "fig7b"
    title = "IOR read throughput vs process count (stock vs S4D, 2nd run)"
    op = "read"
    PAPER_CLAIMS = ["read trend similar to write (Fig. 7b)"]
