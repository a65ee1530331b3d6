"""Online statistics primitives for streaming telemetry.

Every class here is O(1) memory with respect to the stream length —
the point of the streaming plane is that a million-request service-mode
run can keep P99-over-time and hit-ratio trajectories without holding
samples.  Everything is deterministic: nothing here draws randomness,
and the only clock is the simulation clock.

Primitives:

- :class:`WindowedTally` — Welford mean/variance/min/max per sim-time
  bucket, kept in a fixed ring; :meth:`rollup` merges the live buckets
  (Chan's parallel-variance merge) into trailing-window stats.
- :class:`WindowedCounter` — cumulative count/sum plus a trailing
  window and an events-per-second rate.
- :class:`LogHistogram` — log-linear (HDR-style) histogram: one
  ``frexp`` plus one bin increment per observation, quantiles with
  bounded *relative* error.  Latency series report their
  P50/P99/P999 (:data:`DEFAULT_QUANTILES`) from it.
"""

from __future__ import annotations

import dataclasses
import math
import typing

import numpy as np

from ...errors import ConfigError

#: Below this many observations a batch fold runs the scalar loop;
#: numpy's per-call overhead only pays for itself on larger batches
#: (measured breakeven on this fold is around 60 elements).
_VECTOR_CUTOFF = 64


class _Clock(typing.Protocol):  # pragma: no cover - typing aid
    now: float


@dataclasses.dataclass
class WindowStats:
    """Merged statistics of the live buckets of a windowed series."""

    count: int = 0
    mean: float = 0.0
    variance: float = 0.0
    minimum: float = 0.0
    maximum: float = 0.0

    @property
    def stdev(self) -> float:
        return math.sqrt(self.variance)


class WindowedTally:
    """Welford tallies in a ring of sim-time buckets with rollup.

    The ring holds ``buckets`` slots of ``window / buckets`` seconds
    each, addressed by the *absolute* bucket id ``floor(now / span)``;
    a slot whose stored id is stale is reset on first touch, so idle
    periods cost nothing.  Cumulative stats are kept alongside in the
    same pass.

    Observation times may arrive out of order (a file server stamps
    queue depth at arrival but records it at completion).  A late
    observation whose ring slot already holds a *newer* bucket is at
    least one window older than that bucket, so it lies outside every
    trailing window still to be rolled up: it counts in the cumulative
    stats only and leaves the slot alone.
    """

    __slots__ = (
        "name", "clock", "window", "_span", "_nslots", "_slots",
        "count", "_mean", "_m2", "_minimum", "_maximum",
    )

    #: Per-slot record layout: [bucket_id, count, mean, m2, min, max].
    _ID, _N, _MEAN, _M2, _MIN, _MAX = range(6)

    def __init__(self, clock: _Clock, window: float = 1.0,
                 buckets: int = 8, name: str = ""):
        if window <= 0:
            raise ConfigError(f"window must be positive: {window}")
        if buckets < 1:
            raise ConfigError(f"need >= 1 bucket: {buckets}")
        self.name = name
        self.clock = clock
        self.window = window
        self._span = window / buckets
        self._nslots = buckets
        self._slots = [
            [-1, 0, 0.0, 0.0, math.inf, -math.inf] for _ in range(buckets)
        ]
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._minimum = math.inf
        self._maximum = -math.inf

    def observe(self, value: float) -> None:
        self._observe_at(self.clock.now, value)

    def observe_many(self, times, values) -> None:
        """Fold a batch of timestamped observations in one pass.

        Equivalent (up to float associativity) to ``observe(v)`` at
        each recorded time, in any time order (late observations
        follow the class rule).  Large batches use vectorized
        reductions plus one Chan variance merge per run of equal
        bucket ids, which is what makes buffered hooks cheap.
        """
        n = len(values)
        if not n:
            return
        if n < _VECTOR_CUTOFF:
            for t, v in zip(times, values):
                self._observe_at(t, v)
            return
        values = np.asarray(values, dtype=float)
        # Center on the batch mean before squaring: per-bucket m2 then
        # comes from a sum-of-squares difference without catastrophic
        # cancellation (latency streams have tiny spread around a
        # nonzero mean).
        bmean = float(values.mean())
        centered = values - bmean
        squares = centered * centered
        self._merge_cumulative(
            n, bmean, float(squares.sum()),
            float(values.min()), float(values.max()),
        )
        buckets = (np.asarray(times, dtype=float) / self._span).astype(
            np.int64
        )
        starts = np.concatenate(
            ([0], np.flatnonzero(np.diff(buckets)) + 1)
        )
        counts = np.diff(np.concatenate((starts, [n])))
        gsum = np.add.reduceat(centered, starts)
        gsumsq = np.add.reduceat(squares, starts)
        gmin = np.minimum.reduceat(values, starts)
        gmax = np.maximum.reduceat(values, starts)
        slots = self._slots
        for i in range(len(starts)):
            bucket = int(buckets[starts[i]])
            cnt = int(counts[i])
            offset = gsum[i]
            gmean = bmean + offset / cnt
            gm2 = float(gsumsq[i] - offset * offset / cnt)
            if gm2 < 0.0:  # float noise on near-constant chunks
                gm2 = 0.0
            lo = float(gmin[i])
            hi = float(gmax[i])
            rec = slots[bucket % self._nslots]
            if rec[0] > bucket:
                continue  # late: cumulative stats only (class docstring)
            if rec[0] != bucket:
                rec[0] = bucket
                rec[1] = cnt
                rec[2] = gmean
                rec[3] = gm2
                rec[4] = lo
                rec[5] = hi
                continue
            total = rec[1] + cnt
            delta = gmean - rec[2]
            rec[3] += gm2 + delta * delta * rec[1] * cnt / total
            rec[2] += delta * cnt / total
            rec[1] = total
            if lo < rec[4]:
                rec[4] = lo
            if hi > rec[5]:
                rec[5] = hi

    def _observe_at(self, when: float, value: float) -> None:
        """One observation stamped ``when`` (scalar batch-fold path)."""
        count = self.count + 1
        self.count = count
        delta = value - self._mean
        mean = self._mean + delta / count
        self._mean = mean
        self._m2 += delta * (value - mean)
        if value < self._minimum:
            self._minimum = value
        if value > self._maximum:
            self._maximum = value
        bucket = int(when / self._span)
        rec = self._slots[bucket % self._nslots]
        if rec[0] > bucket:
            return  # late: cumulative stats only (class docstring)
        if rec[0] != bucket:
            rec[0] = bucket
            rec[1] = 0
            rec[2] = 0.0
            rec[3] = 0.0
            rec[4] = math.inf
            rec[5] = -math.inf
        n = rec[1] + 1
        rec[1] = n
        delta = value - rec[2]
        mean = rec[2] + delta / n
        rec[2] = mean
        rec[3] += delta * (value - mean)
        if value < rec[4]:
            rec[4] = value
        if value > rec[5]:
            rec[5] = value

    def _merge_cumulative(self, n: int, mean: float, m2: float,
                          minimum: float, maximum: float) -> None:
        """Chan-merge one pre-reduced batch into the cumulative stats."""
        total = self.count + n
        delta = mean - self._mean
        self._m2 += m2 + delta * delta * self.count * n / total
        self._mean += delta * n / total
        self.count = total
        if minimum < self._minimum:
            self._minimum = minimum
        if maximum > self._maximum:
            self._maximum = maximum

    # -- cumulative (mirrors sim.monitor.Tally) -------------------------
    @property
    def mean(self) -> float:
        return self._mean if self.count else 0.0

    @property
    def minimum(self) -> float:
        return self._minimum if self.count else 0.0

    @property
    def maximum(self) -> float:
        return self._maximum if self.count else 0.0

    @property
    def variance(self) -> float:
        return self._m2 / (self.count - 1) if self.count > 1 else 0.0

    @property
    def stdev(self) -> float:
        return math.sqrt(self.variance)

    # -- trailing window -------------------------------------------------
    def rollup(self) -> WindowStats:
        """Merge the live buckets into trailing-window statistics.

        A bucket is *live* when its absolute id falls inside the last
        ``buckets`` ids ending at the current one; anything older is a
        stale ring slot awaiting reuse.  The merge is Chan's pairwise
        variance combination, applied in fixed slot order (so repeated
        calls on unchanged state give bit-identical floats).
        """
        current = int(self.clock.now / self._span)
        oldest = current - self._nslots + 1
        count = 0
        mean = 0.0
        m2 = 0.0
        minimum = math.inf
        maximum = -math.inf
        for rec in self._slots:
            if rec[0] < oldest or not rec[1]:
                continue
            n = rec[1]
            delta = rec[2] - mean
            total = count + n
            m2 += rec[3] + delta * delta * count * n / total
            mean += delta * n / total
            count = total
            if rec[4] < minimum:
                minimum = rec[4]
            if rec[5] > maximum:
                maximum = rec[5]
        if not count:
            return WindowStats()
        variance = m2 / (count - 1) if count > 1 else 0.0
        return WindowStats(count, mean, variance, minimum, maximum)

    def as_dict(self) -> dict:
        window = self.rollup()
        return {
            "count": self.count, "mean": self.mean, "stdev": self.stdev,
            "min": self.minimum, "max": self.maximum,
            "window_count": window.count, "window_mean": window.mean,
            "window_max": window.maximum,
        }


class WindowedCounter:
    """Cumulative count/sum with a trailing window and a rate.

    ``add(amount)`` counts one event of weight ``amount`` (bytes,
    seconds, 1.0 ...).  ``rate()`` is window events per second over the
    trailing ``window`` seconds; ``window_sum()`` the summed weight.
    """

    __slots__ = ("name", "clock", "window", "_span", "_nslots",
                 "_slots", "count", "total")

    def __init__(self, clock: _Clock, window: float = 1.0,
                 buckets: int = 8, name: str = ""):
        if window <= 0:
            raise ConfigError(f"window must be positive: {window}")
        if buckets < 1:
            raise ConfigError(f"need >= 1 bucket: {buckets}")
        self.name = name
        self.clock = clock
        self.window = window
        self._span = window / buckets
        self._nslots = buckets
        # Per-slot record layout: [bucket_id, count, sum].
        self._slots = [[-1, 0, 0.0] for _ in range(buckets)]
        self.count = 0
        self.total = 0.0

    def add(self, amount: float = 1.0) -> None:
        self._add_at(self.clock.now, amount)

    def _add_at(self, when: float, amount: float) -> None:
        self.count += 1
        self.total += amount
        bucket = int(when / self._span)
        rec = self._slots[bucket % self._nslots]
        if rec[0] != bucket:
            rec[0] = bucket
            rec[1] = 1
            rec[2] = amount
        else:
            rec[1] += 1
            rec[2] += amount

    def add_many(self, times, amounts) -> None:
        """Fold a batch of timestamped ``add`` calls in one pass.

        ``times`` must be non-decreasing (buffer arrival order); large
        batches reduce to one summed update per touched bucket.
        """
        n = len(amounts)
        if not n:
            return
        if n < _VECTOR_CUTOFF:
            for t, a in zip(times, amounts):
                self._add_at(t, a)
            return
        amounts = np.asarray(amounts, dtype=float)
        self.count += n
        self.total += float(amounts.sum())
        buckets = (np.asarray(times, dtype=float) / self._span).astype(
            np.int64
        )
        starts = np.concatenate(
            ([0], np.flatnonzero(np.diff(buckets)) + 1)
        )
        counts = np.diff(np.concatenate((starts, [n])))
        gsum = np.add.reduceat(amounts, starts)
        slots = self._slots
        for i in range(len(starts)):
            bucket = int(buckets[starts[i]])
            cnt = int(counts[i])
            amount = float(gsum[i])
            rec = slots[bucket % self._nslots]
            if rec[0] != bucket:
                rec[0] = bucket
                rec[1] = cnt
                rec[2] = amount
            else:
                rec[1] += cnt
                rec[2] += amount

    def _live(self) -> typing.Iterator[list]:
        oldest = int(self.clock.now / self._span) - self._nslots + 1
        for rec in self._slots:
            if rec[0] >= oldest:
                yield rec

    def window_count(self) -> int:
        return sum(rec[1] for rec in self._live())

    def window_sum(self) -> float:
        return sum(rec[2] for rec in self._live())

    def rate(self) -> float:
        """Window events per second (over the full window length)."""
        return self.window_count() / self.window

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> dict:
        oldest = int(self.clock.now / self._span) - self._nslots + 1
        wcount = 0
        wsum = 0.0
        for rec in self._slots:
            if rec[0] >= oldest:
                wcount += rec[1]
                wsum += rec[2]
        return {
            "count": self.count, "total": self.total, "mean": self.mean,
            "window_count": wcount, "window_total": wsum,
            "rate": wcount / self.window,
        }


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
