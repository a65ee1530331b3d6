"""Fig. 1 — motivation: IOR sequential vs random reads on the stock
PVFS2 system.

Paper setup: 8 HDD servers, 16 processes, 16 GB shared file, request
sizes 4 KB - 32 MB.  Claim: "the average bandwidth is reduced by more
than half when small random accesses are conducted with request size
from 4KB to 32KB.  For request size larger than 4MB, the random I/O
performance is comparable to the sequential performance."
"""

from __future__ import annotations

from ..cluster import run_workload
from ..units import KiB, MiB
from ..workloads import IORWorkload
from .common import scale_int, testbed
from .harness import Experiment, ExperimentResult, Series, mb, register


@register
class Fig1Motivation(Experiment):
    exp_id = "fig1"
    title = "IOR read throughput, sequential vs random (stock system)"
    default_scale = 1.0

    #: (request size, requests per rank at scale 1.0, scaling floor).
    #: The floor keeps the per-rank random span large enough for the
    #: seek penalty to exist at small scales.
    POINTS = [
        (4 * KiB, 128, 64),
        (16 * KiB, 128, 64),
        (64 * KiB, 96, 32),
        (256 * KiB, 48, 16),
        (1 * MiB, 24, 8),
        (4 * MiB, 12, 4),
        (16 * MiB, 6, 2),
    ]
    PROCESSES = 16

    #: The paper's 16 GB shared file: the random pattern's seek span.
    FILE_SIZE = 16 << 30

    def measure(self, scale: float) -> ExperimentResult:
        sizes = []
        bandwidth = {"sequential": [], "random": []}
        spec = testbed(num_nodes=16)
        file_size = max(int(self.FILE_SIZE * scale), 1 << 30)
        for request, rpr, floor in self.POINTS:
            rpr = scale_int(rpr, scale, minimum=floor)
            rpr = min(rpr, file_size // self.PROCESSES // request)
            sizes.append(request // KiB)
            for pattern in ("sequential", "random"):
                # The full-size file keeps random seek distances at the
                # paper's scale; requests_per_rank bounds simulation
                # cost (IOR's segment-count knob).
                workload = IORWorkload(
                    self.PROCESSES, request, file_size,
                    pattern=pattern, seed=17, requests_per_rank=rpr,
                )
                result = run_workload(
                    spec, workload, s4d=False,
                    phases=("read",), read_runs=1,
                )
                bandwidth[pattern].append(mb(result.phases["read1"].bandwidth))
        return ExperimentResult(
            exp_id=self.exp_id,
            title=self.title,
            x_label="request (KB)",
            y_label="read MB/s",
            series=[
                Series("sequential", sizes, bandwidth["sequential"]),
                Series("random", sizes, bandwidth["random"]),
            ],
            paper_claims=[
                "random bandwidth less than half of sequential for 4-32KB",
                "random comparable to sequential above 4MB",
            ],
        )

    def check_shape(self, result: ExperimentResult) -> list[str]:
        failures = []
        seq = result.get("sequential")
        rnd = result.get("random")
        for i, x in enumerate(seq.x):
            if x <= 32:  # the 4-32KB band
                if rnd.y[i] > 0.6 * seq.y[i]:
                    failures.append(
                        f"random at {x}KB is {rnd.y[i]:.1f} vs sequential "
                        f"{seq.y[i]:.1f}: not 'reduced by more than half'"
                    )
        # Convergence at the top end.
        if rnd.y[-1] < 0.65 * seq.y[-1]:
            failures.append(
                f"random at {seq.x[-1]}KB ({rnd.y[-1]:.1f}) did not converge "
                f"to sequential ({seq.y[-1]:.1f})"
            )
        # Sequential bandwidth grows with request size overall.
        if seq.y[-1] < seq.y[0]:
            failures.append("sequential bandwidth did not grow with size")
        return failures
