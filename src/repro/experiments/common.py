"""Shared helpers for experiment drivers."""

from __future__ import annotations

from ..cluster import ClusterSpec, run_workload
from ..units import MiB
from ..workloads import IORWorkload
from .harness import Experiment, ExperimentResult, Series, mb


def testbed(**overrides) -> ClusterSpec:
    """The paper's testbed spec with optional overrides."""
    return ClusterSpec.paper_testbed(**overrides)


def scale_int(value: int, scale: float, minimum: int = 1) -> int:
    """Scale an integer quantity, clamped below."""
    return max(minimum, round(value * scale))


#: The paper's per-instance shared file size (2 GB).
PAPER_FILE_SIZE = 2 * 1024 * MiB


def ior_campaign(
    processes: int,
    request_size: int | str,
    instances: int = 10,
    sequential: int = 6,
    seed: int = 0,
    file_size: int | str = PAPER_FILE_SIZE,
    requests_per_rank: int | None = None,
) -> list[IORWorkload]:
    """The Fig. 6 composition: N IOR instances, ``sequential`` of them
    sequential and the rest random, interleaved seq/rand/seq/... "to
    simulate different data access patterns at different moments", each
    over its own shared 2 GB file.

    The file *span* stays at the paper's size so random seek distances
    (and therefore the stock baseline's random-write penalty) are
    realistic; ``requests_per_rank`` bounds how many blocks each rank
    actually touches, which is what keeps the simulation tractable.
    The cache-capacity fraction applies to the touched bytes.
    """
    from ..units import parse_size

    random_count = instances - sequential
    patterns = []
    seq_left, rand_left = sequential, random_count
    toggle = True
    while seq_left or rand_left:
        if (toggle and seq_left) or not rand_left:
            patterns.append("sequential")
            seq_left -= 1
        else:
            patterns.append("random")
            rand_left -= 1
        toggle = not toggle
    req = parse_size(request_size)
    size = parse_size(file_size)
    region_blocks = size // processes // req
    rpr = requests_per_rank
    if rpr is not None:
        rpr = max(1, min(rpr, region_blocks))
    return [
        IORWorkload(
            processes,
            request_size,
            size,
            pattern=pattern,
            path=f"/ior-{i}.dat",
            seed=seed * 1000 + i,
            requests_per_rank=rpr,
        )
        for i, pattern in enumerate(patterns)
    ]


def campaign_rpr(scale: float, base: int = 256, minimum: int = 8) -> int:
    """Requests per rank for a scaled campaign instance."""
    return scale_int(base, scale, minimum=minimum)


def stock_and_s4d(spec: ClusterSpec, workload, **options) -> dict:
    """Run ``workload`` on the stock system, then with S4D-Cache.

    Returns one point of a paired figure: ``{"write": (stock, s4d),
    "read": (stock, s4d)}`` in MB/s.
    """
    stock = run_workload(spec, workload, s4d=False, **options)
    s4d = run_workload(spec, workload, s4d=True, **options)
    return {
        "write": (mb(stock.write_bandwidth), mb(s4d.write_bandwidth)),
        "read": (mb(stock.read_bandwidth), mb(s4d.read_bandwidth)),
    }


class StockVsS4D(Experiment):
    """One view of a stock-vs-S4D campaign (Figs. 6, 7, 9 and 10).

    ``measure`` returns ``{x: point}`` with one :func:`stock_and_s4d`
    point per x value; the write view (a) and the read view (b) plot
    the ``op`` side of every point as a ``stock`` and an ``s4d`` series.
    """

    #: "write" or "read" (read == second run, per §V.A).
    op: str = ""
    x_label: str = ""
    PAPER_CLAIMS: list[str] = []

    def view(self, data: dict, scale: float) -> ExperimentResult:
        xs = list(data)
        return ExperimentResult(
            exp_id=self.exp_id,
            title=self.title,
            x_label=self.x_label,
            y_label=f"{self.op} MB/s",
            series=[
                Series("stock", xs, [data[x][self.op][0] for x in xs]),
                Series("s4d", xs, [data[x][self.op][1] for x in xs]),
            ],
            paper_claims=self.PAPER_CLAIMS,
        )
