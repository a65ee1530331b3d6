"""Measurement helpers: counters, tallies and busy-interval logs.

File servers log their busy intervals here for the utilisation behind
the paper's figures; the trace breakdown (:mod:`repro.obs.summary`)
and the streaming series (:mod:`repro.obs.streaming.hub`) build on
:class:`Tally`, and counter series on :class:`Counter`.
"""

from __future__ import annotations

import math


class Counter:
    """A named monotonic counter with a byte-sum companion."""

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0

    def add(self, amount: float = 1.0) -> None:
        self.count += 1
        self.total += amount

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> dict:
        """Exporter protocol: the JSON-ready summary of this counter."""
        return {"count": self.count, "total": self.total, "mean": self.mean}


class Tally:
    """Streaming mean/variance/min/max of observed samples (Welford)."""

    def __init__(self, name: str = ""):
        self.name = name
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._minimum = math.inf
        self._maximum = -math.inf

    def observe(self, value: float) -> None:
        self.count += 1
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        self._minimum = min(self._minimum, value)
        self._maximum = max(self._maximum, value)

    def merge(self, count: int, mean: float, m2: float,
              minimum: float, maximum: float) -> None:
        """Fold in one pre-reduced batch of ``count`` > 0 samples.

        ``m2`` is the batch's sum of squared deviations from its
        ``mean``; the merge is Chan et al.'s pairwise combination, so
        a batch folded here matches observing its samples one by one
        up to float rounding (exactly, into an empty tally).
        """
        n = self.count
        total = n + count
        delta = mean - self._mean
        self._m2 += m2 + delta * delta * n * count / total
        self._mean = self._mean + delta * count / total if n else mean
        self.count = total
        self._minimum = min(self._minimum, minimum)
        self._maximum = max(self._maximum, maximum)

    @property
    def minimum(self) -> float:
        """Smallest observation; 0.0 with no samples (not ``inf``)."""
        return self._minimum if self.count else 0.0

    @property
    def maximum(self) -> float:
        """Largest observation; 0.0 with no samples (not ``-inf``)."""
        return self._maximum if self.count else 0.0

    @property
    def mean(self) -> float:
        return self._mean if self.count else 0.0

    @property
    def variance(self) -> float:
        return self._m2 / (self.count - 1) if self.count > 1 else 0.0

    @property
    def stdev(self) -> float:
        return math.sqrt(self.variance)

    def as_dict(self) -> dict:
        """Exporter protocol: the JSON-ready summary of this tally."""
        return {
            "count": self.count, "mean": self.mean, "stdev": self.stdev,
            "min": self.minimum, "max": self.maximum,
        }


class IntervalLog:
    """Append-only log of (start, end, tag) busy intervals.

    Devices record service intervals here; analysis code computes
    utilisation and overlap (parallelism) from the raw intervals.
    """

    def __init__(self) -> None:
        self.intervals: list[tuple[float, float, str]] = []

    def record(self, start: float, end: float, tag: str = "") -> None:
        if end < start:
            raise ValueError(f"interval ends before it starts: {start}..{end}")
        self.intervals.append((start, end, tag))

    def busy_time(self) -> float:
        """Total busy time with overlapping intervals merged."""
        if not self.intervals:
            return 0.0
        spans = sorted((s, e) for s, e, _ in self.intervals)
        total = 0.0
        cur_s, cur_e = spans[0]
        for s, e in spans[1:]:
            if s > cur_e:
                total += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        return total + (cur_e - cur_s)

    def as_dict(self) -> dict:
        """Exporter protocol: interval count and merged busy time."""
        return {"intervals": len(self.intervals), "busy_time": self.busy_time()}
