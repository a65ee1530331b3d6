"""Deterministic performance benchmarks (``python -m repro bench``).

The suite measures the wall-clock cost of fixed, seeded workloads:
the *work* each benchmark performs is bit-deterministic (same seeds,
same event sequence), only the wall-clock readings vary by host.  That
split is what lets CI compare throughput numbers across commits while
the simulation-determinism gates compare results across optimisations.
Receipts — committed proofs of the code's claims about itself, run by
``--receipt NAME`` — live in :mod:`.receipts`.

Wall-clock use in this package is sanctioned by the ``[tool.simlint]``
DET001 allowlist — this is reporting code, not simulation code.
"""

from .suite import (
    BenchResult,
    SUITE,
    compare_to_baseline,
    run_suite,
    suite_names,
)

__all__ = [
    "BenchResult",
    "SUITE",
    "compare_to_baseline",
    "run_suite",
    "suite_names",
]
