"""Extension experiment: S4D-Cache vs CARL (paper ref [26], §II.C).

"Our previous work CARL similarly uses the global data information and
SSDs to boost performance.  However, the SSD-based servers are used as
persistent storage instead of cache."

The comparison the paper implies but never measures: on a *stable*
workload (placement profiled from the exact pattern that then runs),
CARL's static placement is hard to beat — no admission misses, no
write-back traffic.  When the pattern *shifts* after profiling, the
placement is stale and CARL degenerates to the stock system, while
S4D-Cache re-adapts through its runtime admission/eviction.
"""

from __future__ import annotations

from ..cluster import build_cluster, calibrate_cost_params
from ..core import CARLPlacementLayer, CostModel, plan_placement
from ..mpiio import MPIJob
from ..units import KiB, MiB
from ..workloads import IORWorkload
from .common import campaign_rpr, testbed
from .harness import Experiment, ExperimentResult, Series, mb, register


@register
class CarlComparison(Experiment):
    exp_id = "ext_carl"
    title = "Extension: S4D-Cache vs CARL placement, stable vs shifted"
    PROCESSES = 8
    default_scale = 0.5

    def measure(self, scale: float) -> ExperimentResult:
        rpr = campaign_rpr(scale, base=128)
        profiled = IORWorkload(
            self.PROCESSES, 16 * KiB, 2 * 1024 * MiB,
            pattern="random", seed=51, requests_per_rank=rpr, path="/data",
        )
        shifted = IORWorkload(
            self.PROCESSES, 16 * KiB, 2 * 1024 * MiB,
            pattern="random", seed=777, requests_per_rank=rpr, path="/data",
        )
        budget = int(profiled.data_bytes() * 0.5)

        stable, drifted = {}, {}
        for system in ("stock", "carl", "s4d"):
            stable[system] = self._measure(system, profiled, profiled, budget)
            drifted[system] = self._measure(system, profiled, shifted, budget)

        labels = ["stock", "carl", "s4d"]
        return ExperimentResult(
            exp_id=self.exp_id,
            title=self.title,
            x_label="system",
            y_label="write MB/s",
            series=[
                Series("stable pattern", labels,
                       [stable[s] for s in labels]),
                Series("shifted pattern", labels,
                       [drifted[s] for s in labels]),
            ],
            paper_claims=[
                "CARL uses SSD servers as persistent storage, not cache "
                "(§II.C); a cache adapts to pattern shifts, a static "
                "placement cannot",
            ],
        )

    def _measure(self, system, profiled, actual, budget) -> float:
        spec = testbed(num_nodes=self.PROCESSES)
        if system == "stock":
            cluster = build_cluster(spec, s4d=False)
            layer = cluster.layer
        elif system == "s4d":
            cluster = build_cluster(spec, s4d=True, cache_capacity=budget)
            layer = cluster.layer
        else:
            cluster = build_cluster(spec, s4d=True, cache_capacity=0)
            model = CostModel(calibrate_cost_params(spec))
            # Region size = request size: CARL's most favourable
            # granularity for this sparse pattern (1MB regions would be
            # ~94% unused by 16KB sampled requests).
            plan = plan_placement(
                [profiled], model, budget, region_size=16 * KiB
            )
            layer = CARLPlacementLayer(
                cluster.sim, cluster.direct, cluster.cpfs, plan
            )
        stats = MPIJob(cluster.sim, layer, actual.processes).run(
            actual.make_body("write")
        )
        return mb(MPIJob.aggregate_bandwidth(stats))

    def check_shape(self, result: ExperimentResult) -> list[str]:
        stable = dict(zip(result.get("stable pattern").x,
                          result.get("stable pattern").y))
        drifted = dict(zip(result.get("shifted pattern").x,
                           result.get("shifted pattern").y))
        failures = []
        if stable["carl"] < stable["stock"] * 1.05:
            failures.append("CARL should beat stock on its profiled pattern")
        if stable["s4d"] < stable["stock"] * 1.05:
            failures.append("S4D should beat stock on a random pattern")
        # The adaptivity claim: after the shift, CARL loses most of its
        # edge while S4D keeps (most of) its improvement.
        carl_retention = (drifted["carl"] - drifted["stock"]) / max(
            stable["carl"] - stable["stock"], 1e-9
        )
        s4d_retention = (drifted["s4d"] - drifted["stock"]) / max(
            stable["s4d"] - stable["stock"], 1e-9
        )
        if s4d_retention < carl_retention:
            failures.append(
                f"S4D retained {s4d_retention:.0%} of its gain after the "
                f"shift vs CARL's {carl_retention:.0%}; the cache should "
                "adapt better than the static placement"
            )
        return failures
