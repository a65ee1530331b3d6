"""Compare two result sets of the end-to-end benchmark.

    python benchmarks/e2e/compare.py A.json B.json [A.json B.json ...]

Arguments alternate between the parent (A) and the change (B), in the
order the campaigns ran; each is a ``run.py --out`` report, or a file
holding several under ``"invocations"`` (``baseline-seed0.json``).
Each campaign is one run, and its value for a (workload, metric) is the
median of its repeats.  Runs are paired in order: A's first with B's
first, and so on.  A side given as a single campaign is judged on that
campaign's repeats instead, since one run has no run-to-run spread.

For every (workload, end-to-end metric) one row gives each side's
median and quartiles over its runs, the change's win share over the
pairs (ties count for neither side) and a verdict against the bound in
BENCHMARK.json:

- ``improved``: at least ten pairs, the change wins at least 90 % of
  them, and the medians differ by more than the parent's quartile
  spread;
- ``unresolved``: the parent's own spread is wider than the bound, and
  not every change run beats every parent run;
- ``worse``: the change's median is worse than the parent's by more
  than the bound;
- ``no worse``: otherwise.

Exits 1 when any row is worse or unresolved, or the change failed more
requests than the parent.
"""

from __future__ import annotations

import json
import statistics
import sys

from run import BENCHMARK

#: Pairs needed before a gain may be claimed.
MIN_PAIRS = 10


def load_reports(path: str) -> list[dict]:
    with open(path) as fh:
        data = json.load(fh)
    return data["invocations"] if "invocations" in data else [data]


def per_run(reports: list[dict]) -> tuple[dict, int]:
    """``{(workload, metric): [values]}`` and the failed-request total.

    The values are each run's median, or a lone run's repeats.
    """
    values: dict[tuple[str, str], list[float]] = {}
    failed = 0
    for report in reports:
        for name, entry in report["workloads"].items():
            failed += entry["failed"]
            for metric, m in entry.get("metrics", {}).items():
                values.setdefault((name, metric), []).extend(
                    m["samples"] if len(reports) == 1 else [m["median"]])
    return values, failed


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def judge(base: list[float], change: list[float], better: str,
          bound: float) -> dict:
    """One row: medians, quartiles, win share and verdict."""
    sign = 1.0 if better == "higher" else -1.0
    base_med, change_med = statistics.median(base), statistics.median(change)
    b_q1, b_q3 = quartiles(base)
    pairs = list(zip(base, change))
    wins = sum(sign * (c - b) > 0 for b, c in pairs)
    win_share = wins / len(pairs)
    gain = sign * (change_med - base_med)
    scale = abs(base_med) or 1.0
    dominates = all(sign * (c - b) > 0 for b in base for c in change)
    if len(pairs) >= MIN_PAIRS and win_share >= 0.9 and gain > b_q3 - b_q1:
        verdict = "improved"
    elif (b_q3 - b_q1) / scale > bound and not dominates:
        verdict = "unresolved"
    elif -gain / scale > bound:
        verdict = "worse"
    else:
        verdict = "no worse"
    return {"base": (base_med, b_q1, b_q3),
            "change": (change_med, *quartiles(change)),
            "delta": gain / scale, "win_share": win_share,
            "pairs": len(pairs), "verdict": verdict}


def main(argv: list[str]) -> int:
    if len(argv) < 2 or len(argv) % 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(BENCHMARK) as fh:
        metrics = json.load(fh)["end_to_end"]
    base_reports = [r for path in argv[0::2] for r in load_reports(path)]
    change_reports = [r for path in argv[1::2] for r in load_reports(path)]
    base, base_failed = per_run(base_reports)
    change, change_failed = per_run(change_reports)

    status = 0
    print(f"{'workload':<14} {'metric':<20} {'A median [q1, q3]':>30} "
          f"{'B median [q1, q3]':>30} {'delta':>8} {'wins':>9}  verdict")
    workloads = [w for w in base_reports[0]["workloads"]
                 if w in change_reports[0]["workloads"]]
    for name in workloads:
        for m in metrics:
            key = (name, m["name"])
            if key not in base or key not in change:
                print(f"{name:<14} {m['name']:<20} missing on one side")
                status = 1
                continue
            row = judge(base[key], change[key], m["better"], m["bound"])
            a, b = row["base"], row["change"]
            print(f"{name:<14} {m['name']:<20} "
                  f"{a[0]:>12.6g} [{a[1]:.5g}, {a[2]:.5g}] "
                  f"{b[0]:>12.6g} [{b[1]:.5g}, {b[2]:.5g}] "
                  f"{row['delta']:>+7.1%} {row['win_share']:>5.0%}/{row['pairs']:<3} "
                  f" {row['verdict']}")
            if row["verdict"] in ("worse", "unresolved"):
                status = 1
    print(f"failed requests: A {base_failed}, B {change_failed}")
    if change_failed > base_failed:
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
