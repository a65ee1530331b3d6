"""Batch statistics for streaming telemetry.

The streaming series (:mod:`.hub`) buffer raw values and fold each
batch at once; this module holds what a fold needs beyond
:class:`repro.sim.monitor.Tally`.  Both pieces are O(1) memory in the
stream length and deterministic: nothing here draws randomness.

- :func:`moments` — one batch reduced to the count, mean, sum of
  squared deviations, min and max that ``Tally.merge`` folds in.
- :class:`LogHistogram` — log-linear (HDR-style) histogram: one
  ``frexp`` plus one bin increment per observation, quantiles with
  bounded *relative* error.  Latency series report their
  P50/P99/P999 (:data:`DEFAULT_QUANTILES`) from it.
"""

from __future__ import annotations

import math
import typing

#: Below this many observations a batch fold runs the scalar loop;
#: numpy's per-call overhead only pays for itself on larger batches
#: (measured breakeven: about 60 elements for the histogram fold and
#: about 130 for :func:`moments`).  numpy is imported by the first fold
#: at or above it, so a run that folds no such batch never loads it.
_VECTOR_CUTOFF = 64


def moments(values) -> tuple[int, float, float, float, float]:
    """``(count, mean, m2, min, max)`` of a non-empty batch.

    ``m2`` is the sum of squared deviations from the batch mean, the
    form :meth:`repro.sim.monitor.Tally.merge` folds in.  Two passes
    (mean first, then centred squares) keep a tiny spread around a
    large mean, the usual latency shape, free of cancellation.
    """
    n = len(values)
    if n < _VECTOR_CUTOFF:
        mean = sum(values) / n
        m2 = 0.0
        for v in values:
            d = v - mean
            m2 += d * d
        return n, mean, m2, float(min(values)), float(max(values))
    import numpy as np

    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean())
    centered = arr - mean
    return (n, mean, float(centered @ centered),
            float(arr.min()), float(arr.max()))


class LogHistogram:
    """Log-linear histogram sketch (HDR-histogram style), fixed bins.

    Positive values are binned by binary octave (the ``math.frexp``
    exponent) with :attr:`SUBBUCKETS` linear sub-bins per octave, so an
    observation is one ``frexp``, a little integer arithmetic and one
    list increment, which is what keeps per-event latency hooks inside
    the telemetry overhead budget.

    Quantile queries interpolate within the hit bin and clamp to the
    tracked exact min/max; the estimate's *relative* error is bounded
    by the sub-bin width, ``1 / SUBBUCKETS`` (≤ ~3%).  Memory is a
    fixed ``(E_MAX - E_MIN) * SUBBUCKETS`` bin array — constant in the
    stream length, like every primitive here.  Zero and negative values
    land in a dedicated underflow bin reported as the tracked minimum.
    """

    #: Octave range: 2^(E_MIN-1) ≈ 4.5e-13 .. 2^E_MAX ≈ 1.7e7 — far
    #: beyond any simulated latency in seconds at either end.
    E_MIN = -40
    E_MAX = 24
    #: Linear sub-bins per octave.
    SUBBUCKETS = 32
    _NBINS = (E_MAX - E_MIN) * SUBBUCKETS
    #: Scales a ``frexp`` mantissa in [0.5, 1) to a sub-bin index.
    _SPAN = 2 * SUBBUCKETS

    __slots__ = ("count", "_bins", "_underflow", "_minimum", "_maximum",
                 "_occ_lo", "_occ_hi")

    def __init__(self):
        self._bins = [0] * self._NBINS
        self._underflow = 0
        self.count = 0
        self._minimum = math.inf
        self._maximum = -math.inf
        # Occupied index range: quantile walks only this slice (a
        # latency stream spans a few octaves of the 2k-bin array).
        self._occ_lo = self._NBINS
        self._occ_hi = -1

    def observe(self, x: float) -> None:
        self.count += 1
        if x < self._minimum:
            self._minimum = x
        if x > self._maximum:
            self._maximum = x
        if x <= 0.0:
            self._underflow += 1
            return
        m, e = math.frexp(x)  # x = m * 2^e with m in [0.5, 1)
        idx = (e - self.E_MIN) * self.SUBBUCKETS + int(
            (m - 0.5) * self._SPAN
        )
        if idx < 0:
            self._underflow += 1
            return
        if idx >= self._NBINS:
            idx = self._NBINS - 1
        self._bins[idx] += 1
        if idx < self._occ_lo:
            self._occ_lo = idx
        if idx > self._occ_hi:
            self._occ_hi = idx

    def observe_many(self, values) -> None:
        """Fold a batch of observations; order-independent, so the
        result is identical to a loop of :meth:`observe`."""
        n = len(values)
        if not n:
            return
        if n < _VECTOR_CUTOFF:
            for v in values:
                self.observe(v)
            return
        import numpy as np

        values = np.asarray(values, dtype=float)
        self.count += n
        vmin = float(values.min())
        vmax = float(values.max())
        if vmin < self._minimum:
            self._minimum = vmin
        if vmax > self._maximum:
            self._maximum = vmax
        positive = values[values > 0.0]
        self._underflow += n - len(positive)
        if not len(positive):
            return
        m, e = np.frexp(positive)
        idx = (e.astype(np.int64) - self.E_MIN) * self.SUBBUCKETS + (
            (m - 0.5) * self._SPAN
        ).astype(np.int64)
        low = idx < 0
        if low.any():
            self._underflow += int(low.sum())
            idx = idx[~low]
            if not len(idx):
                return
        np.clip(idx, 0, self._NBINS - 1, out=idx)
        counts = np.bincount(idx)
        hit = np.flatnonzero(counts)
        bins = self._bins
        for i in hit:
            bins[i] += int(counts[i])
        lo = int(hit[0])
        hi = int(hit[-1])
        if lo < self._occ_lo:
            self._occ_lo = lo
        if hi > self._occ_hi:
            self._occ_hi = hi

    @property
    def minimum(self) -> float:
        return self._minimum if self.count else 0.0

    @property
    def maximum(self) -> float:
        return self._maximum if self.count else 0.0

    def _bin_bounds(self, idx: int) -> tuple[float, float]:
        """The value range ``[lo, hi)`` that bin ``idx`` covers."""
        octave, sub = divmod(idx, self.SUBBUCKETS)
        base = math.ldexp(1.0, octave + self.E_MIN - 1)  # 2^(e-1)
        width = base / self.SUBBUCKETS
        lo = base + sub * width
        return lo, lo + width

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (0.0 when empty).

        Uses the fractional-rank convention of
        ``statistics.quantiles(method="inclusive")``: rank
        ``q * (count - 1)`` over the ordered stream, interpolated
        linearly inside the hit bin.
        """
        if not self.count:
            return 0.0
        rank = q * (self.count - 1)
        seen = self._underflow
        if rank < seen:
            # All underflow values are <= 0; the tracked minimum is the
            # best (and only) representative we kept.
            return self._minimum
        bins = self._bins
        for idx in range(self._occ_lo, self._occ_hi + 1):
            n = bins[idx]
            if not n:
                continue
            if rank < seen + n:
                lo, hi = self._bin_bounds(idx)
                frac = (rank - seen + 0.5) / n
                estimate = lo + (hi - lo) * frac
                return min(max(estimate, self._minimum), self._maximum)
            seen += n
        return self._maximum

    def quantiles(self, qs: typing.Sequence[float]) -> list[float]:
        """Estimates for several quantiles in one bin walk.

        ``qs`` must be ascending (the sample path asks for
        P50/P99/P999 every tick; one walk instead of three).
        """
        if not self.count:
            return [0.0] * len(qs)
        ranks = [q * (self.count - 1) for q in qs]
        out: list[float] = []
        i = 0
        seen = self._underflow
        while i < len(ranks) and ranks[i] < seen:
            out.append(self._minimum)
            i += 1
        bins = self._bins
        for idx in range(self._occ_lo, self._occ_hi + 1):
            if i >= len(ranks):
                break
            n = bins[idx]
            if not n:
                continue
            while i < len(ranks) and ranks[i] < seen + n:
                lo, hi = self._bin_bounds(idx)
                frac = (ranks[i] - seen + 0.5) / n
                estimate = lo + (hi - lo) * frac
                out.append(
                    min(max(estimate, self._minimum), self._maximum)
                )
                i += 1
            seen += n
        while i < len(ranks):
            out.append(self._maximum)
            i += 1
        return out


#: Quantile targets a latency series reports, with their row labels.
DEFAULT_QUANTILES: tuple[tuple[float, str], ...] = (
    (0.5, "p50"), (0.99, "p99"), (0.999, "p999"),
)
