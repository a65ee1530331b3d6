"""Table IV — write throughput vs SSD cache capacity.

Paper: capacities 0/2/4/6 GB against the ten-instance IOR campaign
(0 GB disables S4D-Cache): 58.03 / 69.34 / 86.15 / 90.89 MB/s, i.e.
speedups 0 / 19.5 / 48.4 / 56.6 %.  Growth is steep up to 4 GB and
flattens after ("when most random requests are already cached,
continuously enlarging CServers will only bring limited performance
improvement").  Relative to the campaign's total data (10 x 2 GB) the
paper's capacities are the fractions 0 / 10 / 20 / 30 %, which is what
the scaled reproduction sweeps.
"""

from __future__ import annotations

from ..cluster import run_workload
from ..units import KiB
from .common import campaign_rpr, ior_campaign, testbed
from .harness import Experiment, ExperimentResult, Series, mb, register


@register
class Table4Capacity(Experiment):
    exp_id = "table4"
    title = "IOR write throughput vs SSD cache capacity"
    FRACTIONS = [0.0, 0.10, 0.20, 0.30]
    REQUEST = 16 * KiB
    PROCESSES = 8
    default_scale = 0.5

    def measure(self, scale: float) -> ExperimentResult:
        spec = testbed(num_nodes=self.PROCESSES)
        instances = ior_campaign(
            self.PROCESSES, self.REQUEST,
            instances=10, sequential=6,
            requests_per_rank=campaign_rpr(scale),
        )
        total = sum(w.data_bytes() for w in instances)
        bandwidths = []
        for fraction in self.FRACTIONS:
            capacity = int(total * fraction)
            if capacity == 0:
                result = run_workload(
                    spec, instances, s4d=False, phases=("interleaved",),
                    read_runs=1,
                )
            else:
                result = run_workload(
                    spec, instances, s4d=True,
                    cache_capacity=capacity, phases=("interleaved",),
                    read_runs=1,
                )
            bandwidths.append(mb(result.write_bandwidth))
        base = bandwidths[0]
        speedups = [(b / base - 1.0) * 100.0 for b in bandwidths]
        labels = [f"{int(f * 100)}%" for f in self.FRACTIONS]
        return ExperimentResult(
            exp_id=self.exp_id,
            title=self.title,
            x_label="capacity (fraction of data)",
            y_label="write MB/s",
            series=[
                Series("throughput", labels, bandwidths),
                Series("speedup%", labels, speedups),
            ],
            paper_claims=[
                "throughput 58.03/69.34/86.15/90.89 MB/s at 0/2/4/6GB",
                "speedup 0/19.5/48.4/56.6%",
                "diminishing returns above 4GB (20% of data)",
            ],
        )

    def check_shape(self, result: ExperimentResult) -> list[str]:
        failures = []
        y = result.get("throughput").y
        for i, (a, b) in enumerate(zip(y, y[1:])):
            if b < a * 0.97:
                failures.append(
                    f"throughput dropped from {a:.1f} to {b:.1f} when "
                    f"growing capacity step {i}"
                )
        if y[-1] < y[0] * 1.10:
            failures.append(
                f"largest capacity only reached {y[-1]:.1f} vs baseline "
                f"{y[0]:.1f}: no meaningful speedup"
            )
        gain_mid = y[2] - y[1]
        gain_last = y[3] - y[2]
        if gain_last > gain_mid * 1.5:
            failures.append(
                "no diminishing returns: last capacity step gained "
                f"{gain_last:.1f} vs {gain_mid:.1f} before it"
            )
        return failures
