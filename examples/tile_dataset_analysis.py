#!/usr/bin/env python3
"""Scenario: a 2D tiled dataset pipeline (MPI-Tile-IO style).

A visualisation pipeline writes a dense 2D frame tile-per-process and
later reads it back twice (common for restart + rendering passes).
This example runs the nested-strided workload through both systems and
uses the IOSIG analysis tools to show *why* S4D-Cache helps less here
than for random IOR: the per-rank streams are strided, not random, so
the cost model admits them but the HDD array was already doing
moderately well.

Run:  python examples/tile_dataset_analysis.py
"""

from repro.cluster import ClusterSpec, run_workload
from repro.iosig import detect_signature, randomness_ratio, trace_records
from repro.units import MiB
from repro.workloads import TileIOWorkload


def main() -> None:
    spec = ClusterSpec.paper_testbed(num_nodes=16)
    workload = TileIOWorkload(
        processes=16,
        elements_x=5,
        elements_y=5,
        element_size="32KB",
        seed=5,
    )

    print(f"dataset: {workload.tiles_x}x{workload.tiles_y} tiles, "
          f"tile rows of {workload.tile_row_bytes // 1024} KB, "
          f"dataset row {workload.row_bytes // 1024} KB")
    signature = detect_signature(workload.segments_for_rank(0))
    print(f"per-rank access signature (IOSIG): {signature}")

    print()
    print("running stock vs S4D-Cache (write, then two read passes) ...")
    stock = run_workload(spec, workload, s4d=False)
    s4d = run_workload(spec, workload, s4d=True)

    rows = [
        ("write", stock.write_bandwidth, s4d.write_bandwidth),
        ("read pass 1", stock.first_read_bandwidth, s4d.first_read_bandwidth),
        ("read pass 2", stock.read_bandwidth, s4d.read_bandwidth),
    ]
    print(f"{'phase':<14}{'stock MB/s':>12}{'s4d MB/s':>12}{'gain':>9}")
    for label, sb, cb in rows:
        print(f"{label:<14}{sb / MiB:>12.2f}{cb / MiB:>12.2f}"
              f"{(cb / sb - 1) * 100:>+8.1f}%")

    ratio = randomness_ratio(trace_records(s4d))
    d_pct, c_pct = s4d.metrics.request_distribution()
    print()
    print(f"stream randomness observed by the middleware: {ratio:.2f}")
    print(f"request routing: {d_pct:.1f}% DServers / {c_pct:.1f}% CServers")
    print()
    print("Strided tile rows keep moderate locality on the HDD servers, so")
    print("the improvement sits between pure-sequential (none needed) and")
    print("pure-random IOR (large) — exactly Fig. 10's position in the paper.")


if __name__ == "__main__":
    main()
