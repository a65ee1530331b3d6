"""The HDD seek-time function ``F(d)``.

The cost model of §III.B converts the logical address distance ``d``
between consecutive requests into a seek time via a function ``F``
"derived from an offline profiling of the HDD storage" (the FS2
approach, paper ref [28]).

We use the standard two-piece disk seek curve (Ruemmler & Wilkes):

- short seeks are dominated by head acceleration and grow with the
  square root of the distance;
- long seeks are dominated by constant-velocity travel and grow
  linearly;
- ``F(0) == 0`` (sequential access needs no seek).

Distances are expressed in bytes of logical address space and converted
to cylinders internally.
"""

from __future__ import annotations

import dataclasses
import functools
import math

from ..errors import ConfigError


@dataclasses.dataclass(frozen=True)
class SeekProfile:
    """Piecewise seek-time curve.

    ``F(d) = min_seek + sqrt_coeff * sqrt(cyl)``       for cyl < knee
    ``F(d) = lin_base + lin_coeff * cyl``              for cyl >= knee

    with continuity at the knee enforced by :meth:`validate`.
    """

    #: Bytes per cylinder, to convert byte distance to cylinder distance.
    bytes_per_cylinder: int
    #: Total cylinders on the device (caps the distance).
    total_cylinders: int
    #: Seek time of a minimal (single-cylinder) seek, seconds.
    min_seek: float
    #: Coefficient of the sqrt segment, seconds per sqrt(cylinder).
    sqrt_coeff: float
    #: Cylinder distance where the curve switches to linear.
    knee: int
    #: Coefficient of the linear segment, seconds per cylinder.
    lin_coeff: float

    def __post_init__(self) -> None:
        if self.bytes_per_cylinder <= 0 or self.total_cylinders <= 0:
            raise ConfigError("seek profile geometry must be positive")
        if self.min_seek < 0 or self.sqrt_coeff < 0 or self.lin_coeff < 0:
            raise ConfigError("seek profile coefficients must be non-negative")
        if self.knee < 1:
            raise ConfigError("seek profile knee must be >= 1 cylinder")

    @functools.cached_property
    def _lin_base(self) -> float:
        """Offset making the linear piece continuous at the knee.

        Computed on first use and kept: the cost model evaluates a far
        seek on every request.
        """
        return (
            self.min_seek
            + self.sqrt_coeff * math.sqrt(self.knee)
            - self.lin_coeff * self.knee
        )

    def seek_time(self, distance_bytes: int) -> float:
        """``F(d)``: seconds of seek for a byte distance ``d`` (>= 0)."""
        if distance_bytes <= 0:
            if distance_bytes < 0:
                raise ConfigError(f"negative seek distance: {distance_bytes}")
            return 0.0
        cyl = distance_bytes // self.bytes_per_cylinder
        if cyl < 1:
            cyl = 1
        elif cyl > self.total_cylinders:
            cyl = self.total_cylinders
        if cyl < self.knee:
            return self.min_seek + self.sqrt_coeff * math.sqrt(cyl)
        return self._lin_base + self.lin_coeff * cyl

    @property
    def max_seek(self) -> float:
        """``S``: the full-stroke seek time (cost-model parameter)."""
        return self.seek_time(self.bytes_per_cylinder * self.total_cylinders)

    @classmethod
    def default_250gb(cls) -> "SeekProfile":
        """Profile for a 250 GB 7200 RPM nearline SATA disk.

        Parameters chosen to land on datasheet-class figures for the
        paper's SEAGATE ST32502NS: ~0.8 ms track-to-track, ~8.5 ms
        average, ~17 ms full stroke.
        """
        total_cylinders = 120_000
        bytes_per_cylinder = 250 * 10**9 // total_cylinders
        return cls(
            bytes_per_cylinder=bytes_per_cylinder,
            total_cylinders=total_cylinders,
            min_seek=0.8e-3,
            sqrt_coeff=3.5e-5,
            knee=40_000,
            lin_coeff=9.0e-8,
        )
