"""The Data Identifier (§III.C).

"Data Identifier intercepts every file request issued to DServers, and
identifies requests for performance-critical data using a data access
cost model."

It tracks, per (rank, file), the logical address distance ``d``
between consecutive requests — the randomness measure the cost model
feeds into ``F(d)`` — evaluates the benefit ``B`` (Eq. 8), and admits
positive-benefit requests into the CDT.
"""

from __future__ import annotations

from .cost_model import CostModel
from .metrics import CacheMetrics
from .policy import Policy, SelectivePolicy
from .tables import CDT, CDTEntry

#: ``d`` for a stream's first request: effectively "far", so the first
#: access pays the full seek.
FAR_DISTANCE = 1 << 40


class DataIdentifier:
    """Evaluates requests and maintains the CDT."""

    def __init__(
        self,
        cost_model: CostModel,
        cdt: CDT | None = None,
        policy: Policy | None = None,
        metrics: CacheMetrics | None = None,
    ):
        self.cost_model = cost_model
        self.cdt = cdt if cdt is not None else CDT()
        self.policy = policy if policy is not None else SelectivePolicy()
        self.metrics = metrics if metrics is not None else CacheMetrics()
        #: (rank, file) -> end offset of the previous request.
        self._last_end: dict[tuple[int, str], int] = {}

    def observe(
        self, rank: int, d_file: str, op: str, offset: int, size: int
    ) -> tuple[float, CDTEntry | None]:
        """Evaluate one request; returns (benefit, CDT entry or None).

        ``d`` is the gap between this request and the end of the
        stream's previous one.  The first request of a stream has no
        predecessor; the paper treats startup conservatively, so it
        gets :data:`FAR_DISTANCE` (any value at or past the seek
        curve's saturation point behaves identically).  Updates the
        per-stream distance tracker and admits the request to the CDT
        when the policy deems it critical.
        """
        stream = (rank, d_file)
        last_end = self._last_end
        last = last_end.get(stream)
        distance = FAR_DISTANCE if last is None else abs(offset - last)
        last_end[stream] = offset + size
        benefit = self.cost_model.benefit(op, offset, size, distance)
        self.metrics.benefit_evaluations += 1
        entry = self.cdt.lookup(d_file, offset, size)
        if entry is None and self.policy.is_critical(op, offset, size, benefit):
            entry = self.cdt.admit(d_file, offset, size, benefit)
            self.metrics.critical_admissions += 1
        return benefit, entry

    def reset_streams(self) -> None:
        """Forget per-stream distances (e.g. between benchmark runs)."""
        self._last_end.clear()
