"""Uniform planar array: steering vectors, MRC weights, effective gain.

Steering vectors are returned as unit-norm complex ndarrays of length
elements_x * elements_y, ordered elevation-major (np.kron(elev, azim)).
Phase model uses half-wavelength spacing by default: the direction sines
are sin(azimuth)sin(elevation) along the y axis and
sin(azimuth)cos(elevation) along the x axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

# numpy is imported only where arrays are built, so that the closed-form
# commands never load it.
if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class UpaGeometry:
    """elements_x x elements_y array with spacing in wavelengths."""

    elements_x: int
    elements_y: int
    element_spacing: float = 0.5

    def __post_init__(self) -> None:
        if self.elements_x < 1 or self.elements_y < 1:
            raise ValueError(
                f"element counts must be >= 1, got {self.elements_x}x{self.elements_y}"
            )
        if not self.element_spacing > 0.0:
            raise ValueError(
                f"element_spacing must be > 0, got {self.element_spacing}"
            )

    @property
    def size(self) -> int:
        return self.elements_x * self.elements_y


def steering_vector(
    upa: UpaGeometry, azimuth: float, elevation: float
) -> np.ndarray:
    """Unit-norm array response toward (azimuth, elevation), shape (size,)."""
    import numpy as np

    sin_e = math.sin(azimuth) * math.sin(elevation)
    sin_a = math.sin(azimuth) * math.cos(elevation)
    phase = 2.0j * math.pi * upa.element_spacing
    elev = np.exp(phase * sin_e * np.arange(upa.elements_y)) / math.sqrt(
        upa.elements_y
    )
    azim = np.exp(phase * sin_a * np.arange(upa.elements_x)) / math.sqrt(
        upa.elements_x
    )
    return np.kron(elev, azim)


def mrc_pair(
    upa: UpaGeometry, azimuth: float, elevation: float, uavs_per_symbol: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """(receive combiner w, transmit precoder f) matched to one direction.

    w is the unit-norm steering vector; f is the same vector scaled by
    1/sqrt(uavs_per_symbol) so that the total transmit power splits evenly
    across the K simultaneously served directions.
    """
    if uavs_per_symbol < 1:
        raise ValueError(f"uavs_per_symbol must be >= 1, got {uavs_per_symbol}")
    a = steering_vector(upa, azimuth, elevation)
    return a, a / math.sqrt(uavs_per_symbol)


def effective_channel_gain(
    upa: UpaGeometry,
    azimuth: float,
    elevation: float,
    path_amplitude: float,
    uavs_per_symbol: int = 1,
    probe_azimuth: float | None = None,
    probe_elevation: float | None = None,
) -> complex:
    """Scalar w^H H f for the rank-one channel H = path_amplitude * a a^H.

    With the combiner/precoder matched to the true direction (probe angles
    omitted) this collapses to path_amplitude / sqrt(uavs_per_symbol)
    exactly, for any array size. Passing probe angles steers w and f away
    from the channel's direction, which quantifies mismatch loss.
    """
    if path_amplitude < 0.0:
        raise ValueError(f"path_amplitude must be >= 0, got {path_amplitude}")
    w, f = mrc_pair(
        upa,
        azimuth if probe_azimuth is None else probe_azimuth,
        elevation if probe_elevation is None else probe_elevation,
        uavs_per_symbol,
    )
    a = steering_vector(upa, azimuth, elevation)
    # w^H (beta a a^H) f without forming the size x size outer product.
    return complex(path_amplitude * (w.conj() @ a) * (a.conj() @ f))
