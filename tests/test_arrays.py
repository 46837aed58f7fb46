import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uavcap.arrays import (
    UpaGeometry,
    effective_channel_gain,
    mrc_pair,
    steering_vector,
)

angles = st.floats(-math.pi, math.pi)


def test_geometry_validation() -> None:
    with pytest.raises(ValueError, match="element counts"):
        UpaGeometry(0, 16)
    assert UpaGeometry(24, 16).size == 384


@settings(max_examples=100, deadline=None)
@given(azimuth=angles, elevation=angles)
def test_steering_vector_unit_norm(azimuth: float, elevation: float) -> None:
    vec = steering_vector(UpaGeometry(24, 16), azimuth, elevation)
    assert vec.shape == (384,)
    assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)


def test_steering_vector_boresight_is_uniform() -> None:
    upa = UpaGeometry(4, 3)
    vec = steering_vector(upa, 0.0, 0.0)
    assert np.allclose(vec, 1.0 / math.sqrt(upa.size))


def test_steering_vector_kron_order() -> None:
    upa = UpaGeometry(3, 2)
    azimuth, elevation = 0.9, 0.4
    vec = steering_vector(upa, azimuth, elevation)
    phase = 1.0j * math.pi  # half-wavelength spacing
    sin_e = math.sin(azimuth) * math.sin(elevation)
    sin_a = math.sin(azimuth) * math.cos(elevation)
    # Entry (m_y * elements_x + m_x) factors into the two axis responses.
    for m_y in range(upa.elements_y):
        for m_x in range(upa.elements_x):
            expected = (
                cmath.exp(phase * sin_e * m_y)
                * cmath.exp(phase * sin_a * m_x)
                / math.sqrt(upa.size)
            )
            assert vec[m_y * upa.elements_x + m_x] == pytest.approx(expected, rel=1e-12)


def test_mrc_pair_power_split() -> None:
    upa = UpaGeometry(8, 8)
    w, f = mrc_pair(upa, 0.5, 0.2, uavs_per_symbol=4)
    assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(f) == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(ValueError, match="uavs_per_symbol"):
        mrc_pair(upa, 0.5, 0.2, uavs_per_symbol=0)


@settings(max_examples=100, deadline=None)
@given(
    azimuth=angles,
    elevation=angles,
    amplitude=st.floats(1e-12, 1e-6),
    uavs_per_symbol=st.integers(1, 8),
)
def test_matched_gain_collapses_to_amplitude(
    azimuth: float, elevation: float, amplitude: float, uavs_per_symbol: int
) -> None:
    # w^H (beta a a^H) f == beta / sqrt(K) exactly when matched, any size.
    gain = effective_channel_gain(
        UpaGeometry(24, 16), azimuth, elevation, amplitude, uavs_per_symbol
    )
    expected = amplitude / math.sqrt(uavs_per_symbol)
    assert abs(gain - expected) <= 1e-12 * expected


def test_matched_gain_other_array_sizes() -> None:
    for nx, ny in [(1, 1), (2, 5), (16, 16)]:
        gain = effective_channel_gain(UpaGeometry(nx, ny), 1.1, 0.4, 3e-10)
        assert abs(gain - 3e-10) <= 1e-12 * 3e-10


def test_gain_rejects_negative_amplitude() -> None:
    with pytest.raises(ValueError, match="path_amplitude"):
        effective_channel_gain(UpaGeometry(4, 4), 0.1, 0.1, -1.0)
