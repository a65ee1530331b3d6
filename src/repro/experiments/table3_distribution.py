"""Table III — request distribution between DServers and CServers.

Paper: IOSIG traces over a five-second window (from the 50th second)
of IOR execution with 16 KB and 4096 KB writes.  16 KB: 16.3 % to
DServers / 83.7 % to CServers ("DServers mostly sees sequential
requests").  4096 KB: 100 % / 0 % — the cost model keeps large
requests on DServers.

The reproduction traces the write phase and reports the distribution
over an early window (while the cache is still absorbing, like the
paper's 50th-second snapshot) as well as over the whole phase.
"""

from __future__ import annotations

from ..cluster import run_workload
from ..iosig import randomness_ratio, request_distribution, trace_records
from ..units import KiB
from .common import campaign_rpr, ior_campaign, testbed
from .harness import Experiment, ExperimentResult, Series, register


@register
class Table3Distribution(Experiment):
    exp_id = "table3"
    title = "Request distribution at DServers/CServers (IOSIG window)"
    SIZES = [16 * KiB, 4096 * KiB]
    PROCESSES = 8
    default_scale = 0.5

    def measure(self, scale: float) -> ExperimentResult:
        spec = testbed(num_nodes=self.PROCESSES)
        window_rows = {}
        whole_rows = {}
        dserver_randomness = {}
        cache_rows = {}
        for request in self.SIZES:
            instances = ior_campaign(
                self.PROCESSES, request,
                instances=10, sequential=6,
                requests_per_rank=campaign_rpr(scale),
            )
            result = run_workload(spec, instances, s4d=True, phases=("write",))
            records = [r for r in trace_records(result) if r.op == "write"]
            start = min(r.time for r in records)
            end = max(r.time for r in records)
            # Early window: the paper's 50th-second snapshot was taken
            # while the cache still had room (4 GB of cache at ~80 MB/s
            # fills around second 50), so sample before saturation.
            lo = start
            hi = start + 0.20 * (end - start)
            window = [r for r in records if lo <= r.time < hi]
            window_rows[request] = request_distribution(window)
            whole_rows[request] = request_distribution(records)
            to_d = [r for r in window if r.target == "dservers"]
            dserver_randomness[request] = randomness_ratio(to_d)
            cache_rows[request] = result.metrics

        sizes_kb = [s // KiB for s in self.SIZES]
        return ExperimentResult(
            exp_id=self.exp_id,
            title=self.title,
            x_label="request (KB)",
            y_label="percent of requests",
            series=[
                Series("dservers%", sizes_kb,
                       [window_rows[s][0] for s in self.SIZES]),
                Series("cservers%", sizes_kb,
                       [window_rows[s][1] for s in self.SIZES]),
            ],
            paper_claims=[
                "16KB: 16.3% DServers / 83.7% CServers",
                "4096KB: 100% DServers / 0% CServers",
                "DServers mostly see sequential requests at 16KB",
            ],
            extras={
                "whole-phase distribution": {
                    f"{s // KiB}KB": tuple(round(v, 1) for v in whole_rows[s])
                    for s in self.SIZES
                },
                "DServer-stream randomness in window": {
                    f"{s // KiB}KB": round(dserver_randomness[s], 3)
                    for s in self.SIZES
                },
                **{
                    f"cache counters {s // KiB}KB": cache_rows[s]
                    for s in self.SIZES
                },
            },
        )

    def check_shape(self, result: ExperimentResult) -> list[str]:
        failures = []
        cpct = result.get("cservers%")
        small, large = cpct.y[0], cpct.y[-1]
        if small < 55.0:
            failures.append(
                f"16KB window sent only {small:.1f}% to CServers "
                "(paper: 83.7%)"
            )
        if large > 5.0:
            failures.append(
                f"4096KB window sent {large:.1f}% to CServers (paper: 0%)"
            )
        rand = result.extras["DServer-stream randomness in window"]
        if rand.get("16KB", 1.0) > 0.6:
            failures.append(
                "DServers saw mostly random requests at 16KB; paper says "
                "mostly sequential"
            )
        return failures
