"""Fig. 8 — IOR throughput vs number of CServers.

Paper: 0-6 SSD file servers (0 == stock) "while maintaining the same
available cache space and I/O access patterns".  Claims: write
bandwidth improves 20.7-60.1 %; improvement plateaus above four
CServers because only the random fraction of the workload benefits;
reads show higher throughput than writes with the same plateau.
"""

from __future__ import annotations

from ..cluster import run_workload
from ..units import KiB
from .common import campaign_rpr, ior_campaign, testbed
from .harness import Experiment, ExperimentResult, Series, mb, register


class _Fig8Base(Experiment):
    CSERVER_COUNTS = [0, 1, 2, 4, 6]
    REQUEST = 16 * KiB
    PROCESSES = 8
    default_scale = 0.5

    op: str = ""
    PAPER_CLAIMS: list[str] = []

    def measure(self, scale: float) -> dict:
        """``{count: {op: MB/s}}``; 0 CServers is the stock system."""
        instances = ior_campaign(
            self.PROCESSES, self.REQUEST,
            instances=10, sequential=6,
            requests_per_rank=campaign_rpr(scale),
        )
        total = sum(w.data_bytes() for w in instances)
        capacity = int(total * 0.20)  # same cache space for every count
        points = {}
        for count in self.CSERVER_COUNTS:
            if count == 0:
                spec = testbed(num_nodes=self.PROCESSES)
                result = run_workload(spec, instances, s4d=False,
                                      phases=("interleaved",))
            else:
                spec = testbed(num_nodes=self.PROCESSES, num_cservers=count)
                result = run_workload(
                    spec, instances, s4d=True,
                    cache_capacity=capacity, phases=("interleaved",),
                )
            points[count] = {
                "write": mb(result.write_bandwidth),
                "read": mb(result.read_bandwidth),
            }
        return points

    def view(self, data: dict, scale: float) -> ExperimentResult:
        counts = list(data)
        return ExperimentResult(
            exp_id=self.exp_id,
            title=self.title,
            x_label="CServers",
            y_label=f"{self.op} MB/s",
            series=[Series("throughput", counts,
                           [data[c][self.op] for c in counts])],
            paper_claims=self.PAPER_CLAIMS,
        )

    def check_shape(self, result: ExperimentResult) -> list[str]:
        """Shape criteria, load-scale adjusted.

        The paper (32 processes) sees growth up to four CServers and a
        plateau beyond; at this reproduction's smaller offered load the
        redirected traffic saturates fewer CServers, so the plateau
        sets in earlier.  The robust claims asserted here: the first
        CServer buys a large jump, more CServers never hurt
        meaningfully, and the *marginal* gain per added server
        declines — "choosing a reasonable number of file servers based
        on the characteristic of the I/O workload is critical".
        """
        failures = []
        y = result.get("throughput").y
        counts = self.CSERVER_COUNTS
        if y[1] < y[0] * 1.05:
            failures.append(
                f"one CServer gained only {((y[1] / y[0]) - 1) * 100:.1f}% "
                "over stock"
            )
        if min(y[1:]) < y[1] * 0.93:
            failures.append(
                "throughput fell noticeably when adding CServers: "
                f"{['%.1f' % v for v in y[1:]]}"
            )
        # Declining marginal value per added server.
        early = (y[2] - y[1]) / max(counts[2] - counts[1], 1)
        late = (y[4] - y[2]) / max(counts[4] - counts[2], 1)
        if late > max(early, 0.05 * y[0]):
            failures.append(
                f"no diminishing returns: {late:.1f} MB/s per server for "
                f"{counts[2]}->{counts[4]} vs {early:.1f} for "
                f"{counts[1]}->{counts[2]}"
            )
        return failures


@register
class Fig8aWrite(_Fig8Base):
    exp_id = "fig8a"
    title = "IOR write throughput vs number of CServers"
    op = "write"
    PAPER_CLAIMS = [
        "write bandwidth improved 20.7-60.1%",
        "improvement plateaus above four CServers",
    ]


@register
class Fig8bRead(_Fig8Base):
    exp_id = "fig8b"
    title = "IOR read throughput vs number of CServers (2nd run)"
    op = "read"
    PAPER_CLAIMS = [
        "read throughput higher than write (better SSD random reads)",
        "same plateau shape as writes",
    ]
