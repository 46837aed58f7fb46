import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from uavcap.geometry import (
    Position,
    SensingRegion,
    contains,
    expected_inverse_quartic_range,
    position_pdf,
    sample_positions,
)
from uavcap.montecarlo import substream

# E[r^-4] at R = 1 km, ratio 10: 3 * 10^3 / (10^2 + 10 + 1) = 3000/111.
REFERENCE_INVERSE_QUARTIC = 27.027027027027028


class _FixedUniform:
    """rng stub returning a preset block, for endpoint checks."""

    def __init__(self, block: np.ndarray) -> None:
        self._block = block

    def random(self, shape: tuple[int, int]) -> np.ndarray:
        assert shape == self._block.shape
        return self._block


def test_sensing_region_validates_arguments() -> None:
    with pytest.raises(ValueError, match="max_range"):
        SensingRegion(0.0, 10.0, 0.5)
    with pytest.raises(ValueError, match="radius_ratio"):
        SensingRegion(1.0, 1.0, 0.5)
    with pytest.raises(ValueError, match="max_elevation"):
        SensingRegion(1.0, 10.0, 0.0)
    with pytest.raises(ValueError, match="max_elevation"):
        SensingRegion(1.0, 10.0, math.pi / 2.0 + 0.01)


def test_inner_range(reference_region: SensingRegion) -> None:
    assert reference_region.inner_range == pytest.approx(0.1, rel=1e-15)


def test_pdf_zero_outside_support(reference_region: SensingRegion) -> None:
    region = reference_region
    outside = [
        Position(0.05, 0.1, 0.1),          # below the blind radius
        Position(1.5, 0.1, 0.1),           # past the outer radius
        Position(0.5, region.max_elevation + 0.1, 0.1),
        Position(0.5, -0.1, 0.1),
        Position(0.5, 0.1, math.pi + 0.1),  # azimuth beyond the half plane
        Position(0.5, 0.1, -0.1),
    ]
    for pos in outside:
        assert position_pdf(region, pos) == 0.0
        assert position_pdf(region, pos, "unnormalized") == 0.0
        assert not contains(region, pos)


def test_pdf_positive_inside_and_boundary(reference_region: SensingRegion) -> None:
    region = reference_region
    for pos in [
        Position(0.5, 0.3, 1.0),
        Position(region.inner_range, 0.0, 0.0),
        Position(region.max_range, region.max_elevation, math.pi),
    ]:
        assert position_pdf(region, pos) > 0.0
        assert contains(region, pos)


def test_pdf_mode_ratio_is_sine_of_max_elevation(
    reference_region: SensingRegion,
) -> None:
    pos = Position(0.5, 0.2, 1.0)
    norm = position_pdf(reference_region, pos, "normalized")
    raw = position_pdf(reference_region, pos, "unnormalized")
    assert raw / norm == pytest.approx(
        math.sin(reference_region.max_elevation), rel=1e-14
    )


def test_pdf_rejects_unknown_mode(reference_region: SensingRegion) -> None:
    with pytest.raises(ValueError, match="mode"):
        position_pdf(reference_region, Position(0.5, 0.1, 0.1), "literal")


@pytest.mark.parametrize(
    "mode, expected_mass",
    [("normalized", 1.0), ("unnormalized", math.sin(math.pi / 5.0))],
)
def test_pdf_total_mass_quadrature(
    reference_region: SensingRegion, mode: str, expected_mass: float
) -> None:
    region = reference_region
    # Azimuth is uniform on [0, pi] and independent, so integrate the
    # (range, elevation) slice and scale by pi.
    mass, _ = integrate.dblquad(
        lambda el, r: math.pi * position_pdf(region, Position(r, el, 1.0), mode),
        region.inner_range,
        region.max_range,
        0.0,
        region.max_elevation,
    )
    assert mass == pytest.approx(expected_mass, abs=1e-6)


def test_inverse_quartic_closed_form_matches_quadrature() -> None:
    region = SensingRegion(1.7, 6.0, 1.1)
    e3 = region.radius_ratio**3
    marginal = lambda r: 3.0 * e3 * r * r / (region.max_range**3 * (e3 - 1.0))
    oracle, _ = integrate.quad(
        lambda r: marginal(r) / r**4, region.inner_range, region.max_range
    )
    assert expected_inverse_quartic_range(region) == pytest.approx(oracle, rel=1e-9)


def test_inverse_quartic_reference_value(reference_region: SensingRegion) -> None:
    assert expected_inverse_quartic_range(reference_region) == pytest.approx(
        REFERENCE_INVERSE_QUARTIC, rel=1e-14
    )
    assert expected_inverse_quartic_range(reference_region) == pytest.approx(
        3000.0 / 111.0, rel=1e-15
    )


def test_sampler_endpoints(reference_region: SensingRegion) -> None:
    region = reference_region
    (low_range,), (low_elevation,), (low_azimuth,) = sample_positions(
        region, _FixedUniform(np.zeros((1, 3))), 1
    )
    assert low_range == pytest.approx(region.inner_range, rel=1e-12)
    assert low_elevation == 0.0
    assert low_azimuth == 0.0
    (high_range,), (high_elevation,), (high_azimuth,) = sample_positions(
        region, _FixedUniform(np.ones((1, 3))), 1
    )
    assert high_range == pytest.approx(region.max_range, rel=1e-12)
    assert high_elevation == pytest.approx(region.max_elevation, rel=1e-12)
    assert high_azimuth == pytest.approx(math.pi, rel=1e-12)


def test_sampler_marginals_pass_ks(reference_region: SensingRegion) -> None:
    region = reference_region
    n = 100_000
    rng = substream(97531, 1, 0)
    ranges, elevations, azimuths = sample_positions(region, rng, n)
    critical = float(stats.kstwobign.isf(0.01)) / math.sqrt(n)
    inner3, outer3 = region.inner_range**3, region.max_range**3
    transforms = [
        (ranges**3 - inner3) / (outer3 - inner3),
        np.sin(elevations) / math.sin(region.max_elevation),
        azimuths / math.pi,
    ]
    for unit in transforms:
        assert float(stats.kstest(unit, "uniform").statistic) < critical


def test_sampler_rejects_negative_count(reference_region: SensingRegion) -> None:
    with pytest.raises(ValueError, match="count"):
        sample_positions(reference_region, substream(1, 1, 0), -1)


def test_sampled_ranges_follow_radial_cdf() -> None:
    region = SensingRegion(1.7, 6.0, 1.1)
    n = 20_000
    ranges, _, _ = sample_positions(region, substream(97531, 1, 0), n)
    inner3, outer3 = region.inner_range**3, region.max_range**3
    cdf = lambda r: (np.asarray(r) ** 3 - inner3) / (outer3 - inner3)
    critical = float(stats.kstwobign.isf(0.01)) / math.sqrt(n)
    assert float(stats.kstest(ranges, cdf).statistic) < critical


@pytest.mark.parametrize("count", [0, 1, 4096])
def test_sample_positions_consume_three_uniforms_per_position(
    reference_region: SensingRegion, count: int
) -> None:
    rng = substream(2024, 1, 3)
    sample_positions(reference_region, rng, count)
    assert rng.random() == substream(2024, 1, 3).random(3 * count + 1)[3 * count]


@settings(max_examples=60, deadline=None)
@given(
    max_range=st.floats(0.1, 10.0),
    radius_ratio=st.floats(1.01, 100.0),
    max_elevation=st.floats(0.01, math.pi / 2.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_samples_land_in_support(
    max_range: float, radius_ratio: float, max_elevation: float, seed: int
) -> None:
    region = SensingRegion(max_range, radius_ratio, max_elevation)
    ranges, elevations, azimuths = sample_positions(
        region, np.random.default_rng(seed), 200
    )
    assert np.all(ranges >= region.inner_range * (1.0 - 1e-12))
    assert np.all(ranges <= region.max_range * (1.0 + 1e-12))
    assert np.all(elevations >= 0.0)
    assert np.all(elevations <= region.max_elevation + 1e-12)
    assert np.all(azimuths >= 0.0)
    assert np.all(azimuths <= math.pi)


@settings(max_examples=60, deadline=None)
@given(
    radius_ratio=st.floats(1.01, 100.0),
    max_range=st.floats(0.1, 10.0),
)
def test_inverse_quartic_bounded_by_extremes(
    radius_ratio: float, max_range: float
) -> None:
    # E[r^-4] must lie between the values at the two range extremes.
    region = SensingRegion(max_range, radius_ratio, 0.5)
    value = expected_inverse_quartic_range(region)
    assert region.max_range**-4 <= value <= region.inner_range**-4
