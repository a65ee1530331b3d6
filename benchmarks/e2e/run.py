"""End-to-end campaign benchmark with per-layer host-time attribution.

Full campaign (all workloads, 5 untraced repeats each in round-robin
order, then one traced repeat each)::

    python benchmarks/e2e/run.py [--seed N] [--out PATH]

One workload, printing one JSON result line::

    python benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Every repeat runs in a fresh child process (``measure.py``), one at a
time, so ``ru_maxrss`` is that repeat's own peak and imports are timed
as set-up.  ``--trace 0`` repeats the workload untraced for about ``S``
seconds and reports the medians of the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` runs one traced repeat and reports
the per-layer metrics.  The exit status is 0 only when every request
was correct and the simulated digest repeated exactly.

Host times (``wall_s``, ``host_us_per_request``, ``setup_s``) are
reported at a fixed reference speed: while a child sets up and runs,
it times a fixed loop (:func:`reference_s`) every few milliseconds
(``measure.HostSpeed``), and each time is scaled by ``REFERENCE_S``
over the loop's median time in that window, to the power
``HOST_SENSITIVITY``.  Most of a shared host's own speed swings (up to
1.75x, several times a minute) then cancel out, while any change to the
program still moves the result in full.  The campaign report keeps the
unscaled wall times and the loop's times too.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")

#: Untraced repeats per workload in the full campaign.
CAMPAIGN_REPEATS = 5
#: Set-up samples behind each reported setup_s median.
SETUP_SAMPLES = 5
#: Wall budget of one --workload invocation, and of one campaign child.
SINGLE_BUDGET_S = 170.0
CHILD_TIMEOUT_S = 600.0
#: :func:`reference_s` on an uncontended core of the 2-vCPU Xeon VM the
#: baseline was recorded on; host times are reported at this speed.
REFERENCE_S = 0.0005
#: How host time follows the loop's time when the host slows: the log
#: slope of a workload's wall time on the loop's time was 0.43-0.71
#: over the workloads, as a busy host slows this tight loop more than
#: the simulator.  Scaling by the full ratio would over-correct.
HOST_SENSITIVITY = 0.6


def reference_s() -> float:
    """Time a fixed pure-Python loop: how fast the host runs Python now.

    The loop uses no ``repro`` code, so no change to the program moves it.
    """
    start = time.perf_counter()
    counts: dict[int, int] = {}
    for i in range(4000):
        counts[i % 997] = counts.get(i % 997, 0) + i
    return time.perf_counter() - start


def at_reference_speed(seconds: float, ref_s: float) -> float:
    """``seconds`` measured while :func:`reference_s` took ``ref_s``,
    restated at the reference speed."""
    return seconds * (REFERENCE_S / ref_s) ** HOST_SENSITIVITY


def declared_units() -> tuple[dict[str, str], dict[str, str]]:
    """``{name: unit}`` of the end-to-end and per-layer metrics."""
    with open(BENCHMARK) as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def child(name: str, seed: int, mode: str, timeout: float) -> dict:
    """Run one repeat in a fresh interpreter and return its record."""
    cmd = [sys.executable, os.path.join(HERE, "measure.py"), name, str(seed), mode]
    failed = {"attempted": WORKLOADS[name].expected_requests,
              "failed": WORKLOADS[name].expected_requests}
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(timeout, 1.0), check=False)
    except subprocess.TimeoutExpired:
        return {**failed, "errors": [f"{name} {mode} timed out after {timeout:.0f}s"]}
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return {**failed, "errors": [f"{name} {mode} exited {proc.returncode}: "
                                     f"{proc.stderr[-2000:]}"]}


def ok(record: dict) -> bool:
    return record.get("failed", 0) == 0 and not record.get("errors")


def verdict(records: list[dict]) -> tuple[bool, list[str]]:
    """Whether every repeat was correct with one digest; and the errors."""
    errors = [e for r in records for e in r.get("errors", [])]
    digests = {r["digest"] for r in records if "digest" in r}
    if len(digests) > 1:
        errors.append(f"simulated digests differ across repeats: {sorted(digests)}")
    return not errors and all(map(ok, records)), errors


def end_to_end(runs: list[dict], setups: list[dict]) -> dict[str, list[float]]:
    """Samples of every end-to-end metric, host times at reference speed."""
    wall = [at_reference_speed(r["wall_s"], r["ref_s"]["run"]) for r in runs]
    return {
        "wall_s": wall,
        "host_us_per_request": [w / r["attempted"] * 1e6 for w, r in zip(wall, runs)],
        "setup_s": [at_reference_speed(r["setup_s"], r["ref_s"]["setup"])
                    for r in setups],
        "peak_rss_mib": [r["peak_rss_mib"] for r in runs],
        "sim_write_mb_s": [r["sim_write_mb_s"] for r in runs],
        "sim_read_mb_s": [r["sim_read_mb_s"] for r in runs],
    }


def per_layer(traced: dict) -> dict[str, float]:
    """The traced repeat's per-layer metrics and counters."""
    return {**traced["counters"], **traced["layers"], "trace.wall_s": traced["wall_s"]}


def with_units(values: dict[str, float], units: dict[str, str]) -> dict:
    """``{name: {"value", "unit"}}``; the names must be exactly the declared ones."""
    if set(values) != set(units):
        raise SystemExit(
            f"metrics differ from BENCHMARK.json: extra "
            f"{sorted(set(values) - set(units))}, missing "
            f"{sorted(set(units) - set(values))}")
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def run_single(name: str, seed: int, seconds: float, trace: bool) -> int:
    """The one-workload mode: one JSON result line on stdout."""
    e2e_units, layer_units = declared_units()
    deadline = time.monotonic() + SINGLE_BUDGET_S

    def repeat(mode: str) -> dict:
        return child(name, seed, mode, deadline - time.monotonic())

    if trace:
        runs = records = [repeat("trace")]
    else:
        # Start another repeat only while it should end within `seconds`.
        start = time.monotonic()
        runs = [repeat("run")]
        while ok(runs[-1]):
            elapsed = time.monotonic() - start
            if elapsed + elapsed / len(runs) > seconds:
                break
            runs.append(repeat("run"))
        setups = ([repeat("setup") for _ in range(SETUP_SAMPLES - len(runs))]
                  if ok(runs[-1]) else [])
        records = runs + setups
    good, errors = verdict(records)
    metrics = {}
    if good and trace:
        metrics = with_units(per_layer(runs[0]), layer_units)
    elif good:
        samples = end_to_end(runs, records)
        metrics = with_units({k: statistics.median(v) for k, v in samples.items()},
                             e2e_units)
    for error in errors:
        print(error, file=sys.stderr)
    print(json.dumps({
        "correct": good,
        "attempted": sum(r.get("attempted", 0) for r in records),
        "failed": sum(r.get("failed", 0) for r in records),
        "metrics": metrics,
    }))
    return 0 if good else 1


def git_rev() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
    except OSError:
        return None
    return proc.stdout.strip() or None


def summarise(values: list[float]) -> dict:
    return {"median": statistics.median(values), "min": min(values),
            "max": max(values), "n": len(values), "samples": values}


def run_campaign(seed: int, out: str | None) -> int:
    """All workloads: round-robin untraced repeats, then one traced pass each."""
    e2e_units, layer_units = declared_units()
    runs: dict[str, list[dict]] = {name: [] for name in WORKLOADS}
    for repeat in range(CAMPAIGN_REPEATS):
        for name in WORKLOADS:
            record = child(name, seed, "run", CHILD_TIMEOUT_S)
            runs[name].append(record)
            print(f"[{repeat + 1}/{CAMPAIGN_REPEATS}] {name}: "
                  f"{record.get('wall_s', float('nan')):.3f}s", file=sys.stderr)
    traced = {}
    for name in WORKLOADS:
        traced[name] = child(name, seed, "trace", CHILD_TIMEOUT_S)
        print(f"[traced] {name}: {traced[name].get('wall_s', float('nan')):.3f}s",
              file=sys.stderr)

    report = {
        "schema": 1,
        "kind": "e2e campaign",
        "rev": git_rev(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "seed": seed,
        "repeats": CAMPAIGN_REPEATS,
        "workloads": {},
    }
    for name in WORKLOADS:
        records = runs[name] + [traced[name]]
        good, errors = verdict(records)
        attempted = sum(r["attempted"] for r in records)
        failed = sum(r["failed"] for r in records)
        entry = {"correct": good, "attempted": attempted, "failed": failed,
                 "error_rate": failed / attempted, "errors": errors,
                 "digest": records[0].get("digest")}
        if good:
            samples = end_to_end(runs[name], runs[name])
            entry["metrics"] = {k: {"unit": e2e_units[k], **summarise(v)}
                                for k, v in samples.items()}
            entry["raw_wall_s"] = summarise([r["wall_s"] for r in runs[name]])
            entry["reference_s"] = summarise([r["ref_s"]["run"] for r in runs[name]])
            entry["phase_wall_s"] = {
                phase: statistics.median(r["phase_wall_s"][phase] for r in runs[name])
                for phase in runs[name][0]["phase_wall_s"]}
            entry["per_layer"] = with_units(per_layer(traced[name]), layer_units)
        report["workloads"][name] = entry
    report["correct"] = all(e["correct"] for e in report["workloads"].values())

    print_report(report)
    if out:
        with open(out, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if report["correct"] else 1


def print_report(report: dict) -> None:
    for name, entry in report["workloads"].items():
        print(f"== {name}: correct={entry['correct']} "
              f"error_rate {entry['failed']}/{entry['attempted']} requests, "
              f"digest {entry['digest']}")
        for error in entry["errors"]:
            print(f"   ERROR {error}")
        if not entry["correct"]:
            continue
        metrics = entry["metrics"]
        for metric, m in metrics.items():
            print(f"   {metric:<22} {m['median']:>14.6g} {m['unit']:<5} "
                  f"(min {m['min']:.6g} max {m['max']:.6g} n={m['n']})")
        raw, ref = entry["raw_wall_s"], entry["reference_s"]
        print(f"   unscaled wall_s {raw['median']:.6g} s "
              f"(min {raw['min']:.6g} max {raw['max']:.6g}); reference loop "
              f"{ref['median'] * 1e3:.4g} ms (min {ref['min'] * 1e3:.4g} "
              f"max {ref['max'] * 1e3:.4g})")
        layers = {k: v["value"] for k, v in entry["per_layer"].items()}
        wall = raw["median"]
        print(f"   traced pass: {layers['trace.wall_s']:.1f}s = "
              f"{layers['trace.wall_s'] / wall:.2f}x the untraced median; "
              f"{layers['sim.events'] / wall:,.0f} events/s untraced")
        shares = sorted(((v, k[:-len(".share")]) for k, v in layers.items()
                         if k.endswith(".share") and v >= 0.005), reverse=True)
        print("   host self-time share: " + ", ".join(
            f"{layer} {share:.1%}" for share, layer in shares))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed (0 = the experiments' own inputs)")
    parser.add_argument("--out", help="write the campaign report JSON here")
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="measure only this workload")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="with --workload: how long to repeat untraced runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 reports the per-layer metrics")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"no repro package under {SRC}", file=sys.stderr)
        return 2
    if args.workload:
        return run_single(args.workload, args.seed, args.seconds, bool(args.trace))
    return run_campaign(args.seed, args.out)


if __name__ == "__main__":
    sys.exit(main())
