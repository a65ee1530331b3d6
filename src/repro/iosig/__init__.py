"""I/O pattern tracing and analysis (the paper's IOSIG, ref [33]).

§V.B: "the accessed addresses of requests on DServers and CServers are
tracked using IOSIG, an I/O pattern analysis tool" — Table III is an
IOSIG request-distribution report over a 5-second window.

- :func:`trace_records` — a run's request trace with each request's
  routing outcome, built on demand from the ``IOResult`` every rank
  already keeps;
- :mod:`repro.iosig.analysis` — windowed request distributions
  (Table III), randomness metrics and access-pattern signatures
  (sequential / strided / random detection).
"""

from .analysis import (
    detect_signature,
    randomness_ratio,
    request_distribution,
)
from .tracer import TraceRecord, trace_records

__all__ = [
    "TraceRecord",
    "detect_signature",
    "randomness_ratio",
    "request_distribution",
    "trace_records",
]
