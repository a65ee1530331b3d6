"""Extension experiment: memory cache + S4D-Cache integration.

§II.B closes with: "The integration of memory cache and S4D-Cache will
be an interesting topic for future study."  This driver performs that
study on the simulated testbed: a per-node RAM cache
(:class:`~repro.core.MemoryCacheLayer`) is stacked over the stock
system and over S4D-Cache, and a re-read-heavy random workload (two
read passes after the write, Zipf-free but with full re-use) shows how
the tiers compose: RAM absorbs the second pass's temporal locality,
the SSD tier absorbs the random first-pass traffic RAM cannot hold.
"""

from __future__ import annotations

from ..cluster import build_cluster
from ..core import MemoryCacheLayer
from ..units import KiB, MiB
from ..workloads import IORWorkload
from .common import campaign_rpr, testbed
from .harness import Experiment, ExperimentResult, Series, mb, register


@register
class MemcacheExtension(Experiment):
    exp_id = "ext_memcache"
    title = "Extension: client RAM cache stacked on stock vs S4D (§II.B)"
    PROCESSES = 8
    default_scale = 0.5

    def measure(self, scale: float) -> ExperimentResult:
        rpr = campaign_rpr(scale, base=128)
        workload = IORWorkload(
            self.PROCESSES, 16 * KiB, 2 * 1024 * MiB,
            pattern="random", seed=41, requests_per_rank=rpr,
        )
        # Each node's RAM tier holds ~a rank's working set, so the
        # second read pass exposes its temporal-locality value.
        ram = int(workload.data_bytes() * 1.5 / self.PROCESSES)
        ram = max(ram, 256 * KiB)

        # run_workload drives cluster.layer directly, so the RAM
        # variants run the jobs against the wrapper via the lower-level
        # MPIJob path — used for all four variants for symmetry.
        from ..mpiio import MPIJob

        def measure_layered(s4d: bool, with_ram: bool) -> float:
            spec = testbed(num_nodes=self.PROCESSES)
            capacity = int(workload.data_bytes() * 0.2)
            cluster = build_cluster(
                spec, s4d=s4d, cache_capacity=capacity if s4d else None
            )
            layer = cluster.layer
            if with_ram:
                layer = MemoryCacheLayer(
                    cluster.sim, layer, capacity=ram, block_size=16 * KiB
                )
            # Write pass, then two read passes; report the second read.
            MPIJob(cluster.sim, layer, workload.processes).run(
                workload.make_body("write")
            )
            if cluster.middleware is not None:
                drain = cluster.middleware.rebuilder.drain()
                cluster.sim.run_process(drain, name="drain")
            MPIJob(cluster.sim, layer, workload.processes).run(
                workload.make_body("read")
            )
            stats = MPIJob(cluster.sim, layer, workload.processes).run(
                workload.make_body("read")
            )
            return mb(MPIJob.aggregate_bandwidth(stats))

        labels = ["stock", "ram", "s4d", "ram+s4d"]
        values = [
            measure_layered(False, False),
            measure_layered(False, True),
            measure_layered(True, False),
            measure_layered(True, True),
        ]
        return ExperimentResult(
            exp_id=self.exp_id,
            title=self.title,
            x_label="configuration",
            y_label="2nd-run read MB/s",
            series=[Series("throughput", labels, values)],
            paper_claims=[
                "§II.B: memory cache and S4D-Cache are complements; "
                "their integration is listed as future work",
            ],
        )

    def check_shape(self, result: ExperimentResult) -> list[str]:
        series = result.get("throughput")
        values = dict(zip(series.x, series.y))
        failures = []
        if values["ram"] < values["stock"]:
            failures.append("RAM tier alone should not hurt re-reads")
        if values["s4d"] < values["stock"] * 1.05:
            failures.append("S4D alone should beat stock on random re-reads")
        if values["ram+s4d"] < max(values["ram"], values["s4d"]) * 0.95:
            failures.append(
                "combined tiers should roughly match the better tier "
                f"(got {values['ram+s4d']:.1f} vs ram {values['ram']:.1f} / "
                f"s4d {values['s4d']:.1f})"
            )
        return failures
