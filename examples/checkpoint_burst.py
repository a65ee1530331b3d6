#!/usr/bin/env python3
"""Scenario: a mixed HPC job with a random-I/O analysis phase.

The paper motivates S4D-Cache with applications whose I/O is
*non-uniform*: most processes stream large checkpoints, while a few
issue small random record updates (think an astrophysics code writing
snapshots while an in-situ index is updated).  This example builds that
workload with :class:`SyntheticMixWorkload` and shows where the
selective cache spends its space: the random ranks get absorbed by the
CServers while the streaming ranks keep their full DServer parallelism.

Run:  python examples/checkpoint_burst.py
"""

from repro.cluster import ClusterSpec, run_workload
from repro.iosig import randomness_ratio, trace_records
from repro.units import MiB
from repro.workloads import SyntheticMixWorkload


def main() -> None:
    spec = ClusterSpec.paper_testbed(num_nodes=8)

    # 8 ranks: 2 do small random record updates, 6 stream 1MB blocks.
    workload = SyntheticMixWorkload(
        processes=8,
        file_size="64MB",
        random_fraction=0.25,
        sequential_request="1MB",
        random_request="16KB",
        seed=42,
    )

    print("running stock vs S4D-Cache on the mixed workload ...")
    stock = run_workload(spec, workload, s4d=False, phases=("write",))
    s4d = run_workload(spec, workload, s4d=True, phases=("write",))

    print(f"stock write: {stock.write_bandwidth / MiB:7.2f} MB/s")
    print(f"s4d   write: {s4d.write_bandwidth / MiB:7.2f} MB/s "
          f"({(s4d.write_bandwidth / stock.write_bandwidth - 1) * 100:+.1f}%)")

    # Per-rank view: which ranks' requests ended up on the CServers?
    print()
    print("rank  pattern     requests  ->CServers  stream randomness")
    trace = trace_records(s4d)
    for rank in range(workload.processes):
        records = [r for r in trace if r.rank == rank]
        to_c = sum(1 for r in records if r.target == "cservers")
        pattern = "random" if workload.is_random_rank(rank) else "sequential"
        ratio = randomness_ratio(records)
        print(f"{rank:>4}  {pattern:<10}{len(records):>10}{to_c:>12}"
              f"{ratio:>19.2f}")

    print()
    print("The cost model keeps the streaming ranks on the HDD servers")
    print("(high parallelism, no seeks) and absorbs the random ranks'")
    print("record updates into the SSD cache.")


if __name__ == "__main__":
    main()
