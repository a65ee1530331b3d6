"""Correctness checks on one run's own outputs.

- A read-after-write oracle: an :class:`repro.intervals.IntervalMap` per
  file, built from the run's write stamps, against which every read's
  content segments are checked.  Every workload here writes each block
  of a file before any read of that file and never rewrites it, so the
  final stamp map is the state every read must observe.
- The request count: every rank completes all of its requests.
- A digest of the simulated outcome, which must repeat exactly across
  repeats, seeds held equal, and traced and untraced runs.
"""

from __future__ import annotations

import hashlib
import json


def _coalesced(segments):
    """Merge adjacent segments carrying the same stamp."""
    out = []
    for start, end, stamp in segments:
        if out and out[-1][1] == start and out[-1][2] == stamp:
            out[-1] = (out[-1][0], end, stamp)
        else:
            out.append((start, end, stamp))
    return out


def check_requests(io_results, expected: int) -> tuple[int, list[str]]:
    """Check a run's ``IOResult``s; returns ``(failed, error messages)``.

    A read whose segments differ from the oracle fails; requests missing
    from the expected count fail too.
    """
    from repro.intervals import IntervalMap

    errors = []
    oracle: dict[str, IntervalMap] = {}
    writes = sorted((r for r in io_results if r.op == "write"),
                    key=lambda r: r.stamp)
    for r in writes:
        oracle.setdefault(r.path, IntervalMap()).set(
            r.offset, r.offset + r.size, r.stamp)

    failed = 0
    unwritten = IntervalMap()
    for r in io_results:
        if r.op != "read":
            continue
        stamps = oracle.get(r.path, unwritten)
        want = _coalesced(stamps.lookup(r.offset, r.offset + r.size))
        if _coalesced(r.segments) != want:
            failed += 1
            if len(errors) < 5:
                errors.append(
                    f"read {r.path}[{r.offset}, +{r.size}) saw "
                    f"{_coalesced(r.segments)}, oracle {want}")

    missing = expected - len(io_results)
    if missing:
        errors.append(f"{len(io_results)} requests completed, {expected} expected")
        failed += abs(missing)
    return failed, errors


def digest(summary: dict) -> str:
    """Stable hash of a simulated-outcome summary (floats by ``repr``)."""
    text = json.dumps(summary, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]
