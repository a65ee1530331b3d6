"""Fig. 6 — IOR throughput vs request size, stock vs S4D-Cache.

Paper setup: 10 IOR instances (6 sequential + 4 random) created one by
one, 32 processes, each instance writing/reading a shared 2 GB file;
cache capacity 20 % of the application's data.  Claims:

- write improvement 51.3 / 49.1 / 39.2 / 32.5 % at 8/16/32/64 KB;
- ~0 improvement at 4096 KB;
- read improvement up to 184.1 % at 8 KB (second run), larger than
  the write improvement because SSD reads beat SSD writes.

Fig. 6a (writes) and Fig. 6b (reads) are two views of one campaign:
both inherit ``_Fig6Base.measure``, which the sweep runs once per pair.
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


def measure_point(processes, request, scale, instances=10, sequential=6):
    """One campaign point: ``{op: (stock, s4d)}`` in MB/s."""
    spec = testbed(num_nodes=processes)
    campaign = ior_campaign(
        processes, request,
        instances=instances, sequential=sequential,
        requests_per_rank=campaign_rpr(scale),
    )
    # IOR's real structure: each instance writes then reads; reads are
    # measured on the second pass (§V.A).
    return stock_and_s4d(spec, campaign, phases=("interleaved",))


class _Fig6Base(StockVsS4D):
    SIZES = [8 * KiB, 16 * KiB, 32 * KiB, 64 * KiB, 4096 * KiB]
    PROCESSES = 8
    INSTANCES = 10
    SEQUENTIAL = 6
    default_scale = 0.5
    x_label = "request (KB)"

    def measure(self, scale: float) -> dict:
        return {
            request // KiB: measure_point(
                self.PROCESSES, request, scale,
                self.INSTANCES, self.SEQUENTIAL,
            )
            for request in self.SIZES
        }

    def check_shape(self, result: ExperimentResult) -> list[str]:
        failures = []
        imp = result.improvements("stock", "s4d")
        sizes = result.get("stock").x
        # Meaningful gains for small requests.
        if imp[0] < 15.0:
            failures.append(
                f"improvement at {sizes[0]}KB is {imp[0]:.1f}% (<15%)"
            )
        # The gain shrinks to ~nothing at 4096KB.
        if imp[-1] > 15.0:
            failures.append(
                f"improvement at 4096KB is {imp[-1]:.1f}% (should be ~0)"
            )
        if imp[-1] >= imp[0]:
            failures.append(
                f"improvement did not decay: {imp[0]:.1f}% at {sizes[0]}KB "
                f"vs {imp[-1]:.1f}% at 4096KB"
            )
        # S4D never loses badly anywhere.
        if min(imp) < -10.0:
            failures.append(f"S4D regressed by {min(imp):.1f}%")
        return failures


@register
class Fig6aWrite(_Fig6Base):
    exp_id = "fig6a"
    title = "IOR write throughput vs request size (stock vs S4D)"
    op = "write"
    PAPER_CLAIMS = [
        "write improvement 51.3/49.1/39.2/32.5% at 8/16/32/64KB",
        "write improvement ~0% at 4096KB",
    ]


@register
class Fig6bRead(_Fig6Base):
    exp_id = "fig6b"
    title = "IOR read throughput vs request size (stock vs S4D, 2nd run)"
    op = "read"
    PAPER_CLAIMS = [
        "read improvement up to 184.1% at 8KB (second run)",
        "read improvement decays with request size",
    ]
