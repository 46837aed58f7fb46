"""Hollow quarter-sphere sensing region: density, sampling, range moments.

The region is the set of points with range r in [R/eps, R], elevation
theta in [0, Theta], azimuth phi in [0, pi], for outer radius R (km),
radius ratio eps > 1 and maximum elevation Theta in (0, pi/2].

Two density modes are exposed:

- ``"unnormalized"``: f(r, theta) = 3 eps^3 r^2 cos(theta) / (pi R^3 (eps^3 - 1)).
  Integrating this over the region gives sin(Theta), not 1, so it is a
  proper density only at Theta = pi/2.
- ``"normalized"``: the same expression divided by sin(Theta); integrates
  to 1 for every admissible Theta.

Sampling always uses the normalized density (the two modes share the same
shape, so the sampler is mode-free). Azimuth is uniform on [0, pi] and
independent of the other two coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

# numpy is imported only where arrays are built, so that the closed-form
# commands never load it.
if TYPE_CHECKING:
    import numpy as np

DENSITY_MODES = ("normalized", "unnormalized")


@dataclass(frozen=True, slots=True)
class SensingRegion:
    """Geometry of the surveilled volume.

    max_range is the outer radius R in km; radius_ratio is eps, so the
    inner (blind) radius is R/eps; max_elevation is Theta in radians.
    """

    max_range: float
    radius_ratio: float
    max_elevation: float

    def __post_init__(self) -> None:
        if not self.max_range > 0.0:
            raise ValueError(f"max_range must be > 0, got {self.max_range}")
        if not self.radius_ratio > 1.0:
            raise ValueError(f"radius_ratio must be > 1, got {self.radius_ratio}")
        if not 0.0 < self.max_elevation <= math.pi / 2.0:
            raise ValueError(
                f"max_elevation must be in (0, pi/2], got {self.max_elevation}"
            )

    @property
    def inner_range(self) -> float:
        return self.max_range / self.radius_ratio


@dataclass(frozen=True, slots=True)
class Position:
    """Spherical coordinates of one target: range (km), elevation and azimuth (rad)."""

    range_km: float
    elevation_rad: float
    azimuth_rad: float


def check_density_mode(mode: str, name: str = "mode") -> None:
    """Reject a density mode outside DENSITY_MODES, naming the argument."""
    if mode not in DENSITY_MODES:
        raise ValueError(f"{name} must be one of {DENSITY_MODES}, got {mode!r}")


def density_mass(region: SensingRegion, mode: str) -> float:
    """Integral of the mode's density over the region: 1, or sin(max_elevation)
    for ``"unnormalized"``."""
    check_density_mode(mode)
    return math.sin(region.max_elevation) if mode == "unnormalized" else 1.0


def contains(region: SensingRegion, pos: Position) -> bool:
    """True when pos lies in the closed support of the region."""
    return (
        region.inner_range <= pos.range_km <= region.max_range
        and 0.0 <= pos.elevation_rad <= region.max_elevation
        and 0.0 <= pos.azimuth_rad <= math.pi
    )


def position_pdf(
    region: SensingRegion, pos: Position, mode: str = "normalized"
) -> float:
    """Joint density of (range, elevation, azimuth) at pos; 0 outside the support.

    Units: km^-1 rad^-2. In ``"unnormalized"`` mode the value is the raw
    3 eps^3 r^2 cos(theta) / (pi R^3 (eps^3 - 1)) expression whose integral
    over the support is sin(max_elevation); ``"normalized"`` divides that
    factor out.
    """
    check_density_mode(mode)
    if not contains(region, pos):
        return 0.0
    e3 = region.radius_ratio**3
    value = (
        3.0
        * e3
        * pos.range_km**2
        * math.cos(pos.elevation_rad)
        / (math.pi * region.max_range**3 * (e3 - 1.0))
    )
    if mode == "normalized":
        value /= math.sin(region.max_elevation)
    return value


def _ranges_from_unit(region: SensingRegion, u: np.ndarray) -> np.ndarray:
    # Inverse CDF of the radial marginal: P(r <= x) prop. to x^3 - (R/eps)^3,
    # r = R ((1 + u (eps^3 - 1)) / eps^3)^(1/3). Overwrites u with the ranges
    # and returns it, so callers pass an array of their own.
    import numpy as np

    e3 = region.radius_ratio**3
    u *= e3 - 1.0
    u += 1.0
    u /= e3
    np.cbrt(u, out=u)
    u *= region.max_range
    return u


def _elevations_from_unit(region: SensingRegion, u: np.ndarray) -> np.ndarray:
    # Inverse CDF of the elevation marginal: P(theta <= t) = sin(t)/sin(Theta).
    import numpy as np

    return np.arcsin(u * math.sin(region.max_elevation))


def sample_positions(
    region: SensingRegion, rng: np.random.Generator, count: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw count i.i.d. positions; returns (ranges, elevations, azimuths) arrays.

    Consumes exactly one (count, 3) uniform block from rng, so the draw
    order is reproducible. Inverse-CDF transforms, no rejection.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    u = rng.random((count, 3))
    ranges = _ranges_from_unit(region, u[:, 0].copy())
    elevations = _elevations_from_unit(region, u[:, 1])
    azimuths = math.pi * u[:, 2]
    return ranges, elevations, azimuths


def expected_inverse_quartic_range(region: SensingRegion) -> float:
    """E[r^-4] under the normalized density: 3 eps^3 / (R^4 (eps^2 + eps + 1)).

    This is the moment that turns per-target SNR at fixed range into the
    mean SNR over the region; it is finite for every radius_ratio > 1
    because the inner radius excludes the r -> 0 singularity.
    """
    eps = region.radius_ratio
    return 3.0 * eps**3 / (
        region.max_range**4 * (eps**2 + eps + 1.0)
    )
