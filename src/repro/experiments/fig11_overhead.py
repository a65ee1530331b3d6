"""Fig. 11 — middleware overhead when the cache cannot help.

Paper: IOR with 32 processes writing a shared 10 GB file in a random
pattern "where all the requests intentionally miss the CServers",
forcing the Redirector to send everything to DServers.  Claim: the
overhead (benefit calculation, CDT/DMT lookups, metadata writes) "is
almost unobservable" across 8-32 KB requests.

Reproduction: the same all-miss condition via a zero-capacity cache —
every request is evaluated, admitted to the CDT, fails allocation and
is bounced to DServers, which exercises the full overhead path.
"""

from __future__ import annotations

from ..cluster import run_workload
from ..units import KiB, MiB
from ..workloads import IORWorkload
from .common import campaign_rpr, testbed
from .harness import Experiment, ExperimentResult, Series, mb, register


@register
class Fig11Overhead(Experiment):
    exp_id = "fig11"
    title = "Middleware overhead with an all-miss cache"
    SIZES = [8 * KiB, 16 * KiB, 32 * KiB]
    PROCESSES = 8
    default_scale = 0.5

    def measure(self, scale: float) -> ExperimentResult:
        spec = testbed(num_nodes=self.PROCESSES)
        stock_y, s4d_y = [], []
        for request in self.SIZES:
            # The paper's overhead test writes a shared 10 GB file.
            workload = IORWorkload(
                self.PROCESSES, request, 10 * 1024 * MiB,
                pattern="random", seed=31,
                requests_per_rank=campaign_rpr(scale),
            )
            stock = run_workload(spec, workload, s4d=False, phases=("write",))
            s4d = run_workload(
                spec, workload, s4d=True, cache_capacity=0, phases=("write",)
            )
            assert s4d.metrics.bytes_to_cservers == 0
            stock_y.append(mb(stock.write_bandwidth))
            s4d_y.append(mb(s4d.write_bandwidth))
        sizes_kb = [s // KiB for s in self.SIZES]
        return ExperimentResult(
            exp_id=self.exp_id,
            title=self.title,
            x_label="request (KB)",
            y_label="write MB/s",
            series=[
                Series("stock", sizes_kb, stock_y),
                Series("s4d (all-miss)", sizes_kb, s4d_y),
            ],
            paper_claims=["overhead is almost unobservable"],
        )

    def check_shape(self, result: ExperimentResult) -> list[str]:
        failures = []
        overhead = result.improvements("stock", "s4d (all-miss)")
        for size, pct in zip(result.get("stock").x, overhead):
            if pct < -8.0:
                failures.append(
                    f"all-miss overhead at {size}KB costs {-pct:.1f}% "
                    "(paper: ~0%)"
                )
        return failures
