"""The benchmark's workloads: inputs, execution and expected request counts.

Every workload is a batch job with a closed loop: each simulated rank
sends its next request only after the previous one completes (the
rank bodies of :class:`repro.workloads.IORWorkload`).  The inputs are a
pure function of the workload's parameters and ``seed``; the simulator
only ever sees the generated campaign.

``repro`` is imported lazily inside :meth:`Workload.build` so the child
process can time imports as part of set-up.
"""

from __future__ import annotations

import dataclasses
import time


@dataclasses.dataclass(frozen=True)
class Workload:
    """One named set of inputs and how to run it."""

    name: str
    ranks: int
    requests_per_rank: int
    instances: int
    sequential: int
    num_nodes: int
    s4d: bool
    #: ``interleaved`` is the fig6 experiment's one call (each instance writes
    #: then reads, then a second read pass); ``split`` runs the write phase
    #: and the read runs as separate ``run_workload`` calls on one cluster,
    #: so the two phases are timed apart.
    schedule: str
    read_runs: int
    request_size: int = 16 * 1024

    @property
    def expected_requests(self) -> int:
        """processes x req/rank x instances x passes (one write, the reads)."""
        return (self.ranks * self.requests_per_rank * self.instances
                * (1 + self.read_runs))

    def build(self, seed: int):
        """Spec, generated campaign and built cluster: everything set-up does.

        ``seed`` feeds the IOR generator and ``ClusterSpec.seed = 42 + seed``;
        seed 0 is exactly the experiments' configuration.
        """
        from repro.cluster import build_cluster
        from repro.experiments.common import ior_campaign, testbed

        spec = testbed(num_nodes=self.num_nodes, seed=42 + seed)
        campaign = ior_campaign(
            self.ranks, self.request_size,
            instances=self.instances, sequential=self.sequential,
            seed=seed, requests_per_rank=self.requests_per_rank,
        )
        # Generate every rank's segments now (they are memoised), so the
        # timed run does not pay for workload generation.
        for instance in campaign:
            instance.validate()
        # The same capacity run_workload would size when left to build
        # the cluster itself.
        capacity = (
            spec.capacity_for(sum(w.data_bytes() for w in campaign))
            if self.s4d else None
        )
        cluster = build_cluster(spec, s4d=self.s4d, cache_capacity=capacity)
        return spec, campaign, cluster

    def execute(self, spec, campaign, cluster, obs=None):
        """Run the campaign; returns ``[(phase, RunResult, host seconds)]``."""
        from repro.cluster import run_workload

        if self.schedule == "interleaved":
            calls = [("interleaved", dict(phases=("interleaved",),
                                          read_runs=self.read_runs))]
        else:
            calls = [
                ("write", dict(phases=("write",))),
                ("read", dict(phases=("read",), read_runs=self.read_runs)),
            ]
        out = []
        for phase, kwargs in calls:
            start = time.perf_counter()
            result = run_workload(spec, campaign, s4d=self.s4d,
                                  cluster=cluster, obs=obs, **kwargs)
            out.append((phase, result, time.perf_counter() - start))
        return out


_FIG6 = dict(ranks=8, requests_per_rank=256, instances=10, sequential=6,
             num_nodes=8, schedule="interleaved", read_runs=2)
_IOR_SEQ = dict(requests_per_rank=8, instances=1, sequential=1, num_nodes=32,
                s4d=True, schedule="split", read_runs=1)

#: Why each workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("fig6-s4d", s4d=True, **_FIG6),
        Workload("fig6-stock", s4d=False, **_FIG6),
        Workload("ior-seq-1024", ranks=1024, **_IOR_SEQ),
        Workload("ior-seq-4096", ranks=4096, **_IOR_SEQ),
    )
}
