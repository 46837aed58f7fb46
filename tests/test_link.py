import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uavcap.config import parse_config
from uavcap.geometry import SensingRegion
from uavcap.link import (
    RadarLinkParams,
    db_to_linear,
    linear_to_db,
    mean_multi_uav_snr,
    mean_single_uav_snr,
    path_gain_squared,
    path_loss_db,
    pathloss_constant,
    per_uav_snr,
)

# Frozen oracle values for the reference scenario (4.9 GHz, 0.01 m^2 RCS,
# 58 dBm, 22.5 dB gain, -94 dBm noise, N = 3, K = 1, R = 1 km, ratio 10,
# max elevation pi/5).
PATH_LOSS_REFERENCE_DB = 197.20392160057028
PATHLOSS_CONSTANT_UNIT = 2.1877616239495518e10      # f = 1 MHz, rcs = 1 m^2
PATHLOSS_CONSTANT_REFERENCE = 5.252815659102873e19  # f = 4900 MHz, rcs = 0.01 m^2
PER_UAV_SNR_AT_1KM = 2.862391902666941
MEAN_SNR_NORMALIZED = 77.36194331532273
MEAN_SNR_UNNORMALIZED = 45.47220936943298


def test_db_helpers_round_trip() -> None:
    assert db_to_linear(0.0) == 1.0
    assert linear_to_db(db_to_linear(13.0)) == pytest.approx(13.0, abs=1e-12)
    assert db_to_linear(30.0) == pytest.approx(1000.0, rel=1e-12)
    with pytest.raises(ValueError):
        linear_to_db(0.0)


def test_path_loss_reference_value() -> None:
    assert path_loss_db(4900.0, 1.0, 0.01) == pytest.approx(
        PATH_LOSS_REFERENCE_DB, abs=1e-9
    )


def test_path_loss_rejects_bad_units() -> None:
    with pytest.raises(ValueError, match="freq"):
        path_loss_db(0.0, 1.0, 0.01)
    with pytest.raises(ValueError, match="distance"):
        path_loss_db(4900.0, 0.0, 0.01)
    with pytest.raises(ValueError, match="rcs"):
        path_loss_db(4900.0, 1.0, 0.0)


def test_pathloss_constant_values_and_units() -> None:
    # 1 MHz and 1 m^2 give the bare 10^10.34 of the km-based path loss.
    unit = pathloss_constant(1.0, 1.0)
    assert unit == pytest.approx(PATHLOSS_CONSTANT_UNIT, rel=1e-14)
    reference = pathloss_constant(4900.0, 0.01)
    assert reference == pytest.approx(PATHLOSS_CONSTANT_REFERENCE, rel=1e-14)


@settings(max_examples=100, deadline=None)
@given(
    freq=st.floats(100.0, 100_000.0),
    distance=st.floats(0.05, 30.0),
    rcs=st.floats(1e-4, 10.0),
)
def test_pathloss_routes_agree(freq: float, distance: float, rcs: float) -> None:
    # beta^2 consistency: 10^(-PL/10) * eps_pl * d^4 == 1.
    eps_pl = pathloss_constant(freq, rcs)
    product = 10.0 ** (-path_loss_db(freq, distance, rcs) / 10.0) * eps_pl * distance**4
    assert product == pytest.approx(1.0, rel=1e-9)


def test_link_params_validation(reference_link: RadarLinkParams) -> None:
    with pytest.raises(ValueError, match="cpi_symbols"):
        replace(reference_link, cpi_symbols=0)
    with pytest.raises(ValueError, match="uavs_per_symbol"):
        replace(reference_link, uavs_per_symbol=0)
    with pytest.raises(ValueError, match="rcs"):
        replace(reference_link, rcs_m2=-1.0)


def test_gain_amplitude_convention(reference_link: RadarLinkParams) -> None:
    # The configured dB gain converts to a linear amplitude via 10^(dB/10).
    assert reference_link.gain_amplitude == pytest.approx(10.0**2.25, rel=1e-14)


def test_per_uav_snr_reference_point(reference_link: RadarLinkParams) -> None:
    value = per_uav_snr(reference_link, 1.0)
    assert value == pytest.approx(PER_UAV_SNR_AT_1KM, rel=1e-12)
    assert linear_to_db(value) == pytest.approx(4.567, abs=5e-4)


def test_per_uav_snr_quartic_decay(reference_link: RadarLinkParams) -> None:
    assert per_uav_snr(reference_link, 2.0) == pytest.approx(
        per_uav_snr(reference_link, 1.0) / 16.0, rel=1e-12
    )
    with pytest.raises(ValueError, match="distance"):
        per_uav_snr(reference_link, 0.0)


def test_path_gain_squared_matches_db_route(reference_link: RadarLinkParams) -> None:
    d = 0.73
    from_db = 10.0 ** (
        -path_loss_db(reference_link.carrier_freq_mhz, d, reference_link.rcs_m2) / 10.0
    )
    assert path_gain_squared(reference_link, d) == pytest.approx(from_db, rel=1e-12)


def test_mean_snr_reference_values(
    reference_link: RadarLinkParams, reference_region: SensingRegion
) -> None:
    norm = mean_single_uav_snr(reference_link, reference_region, "normalized")
    raw = mean_single_uav_snr(reference_link, reference_region, "unnormalized")
    assert norm == pytest.approx(MEAN_SNR_NORMALIZED, rel=1e-12)
    assert raw == pytest.approx(MEAN_SNR_UNNORMALIZED, rel=1e-12)
    # The two modes differ by exactly sin(max elevation).
    assert raw / norm == pytest.approx(
        math.sin(reference_region.max_elevation), rel=1e-14
    )


def test_mean_snr_rejects_unknown_mode(
    reference_link: RadarLinkParams, reference_region: SensingRegion
) -> None:
    with pytest.raises(ValueError, match="mode"):
        mean_single_uav_snr(reference_link, reference_region, "raw")


def test_mean_multi_reduces_to_single(
    reference_link: RadarLinkParams, reference_region: SensingRegion
) -> None:
    # total_symbols * K == cpi_symbols * num_uavs collapses to the single-UAV mean.
    for num_uavs in (1, 3):
        multi = mean_multi_uav_snr(
            reference_link,
            reference_region,
            total_symbols=reference_link.cpi_symbols * num_uavs,
            num_uavs=num_uavs,
        )
        single = mean_single_uav_snr(reference_link, reference_region)
        assert multi == pytest.approx(single, rel=1e-12)


@settings(max_examples=80, deadline=None)
@given(
    total_symbols=st.integers(1, 500),
    num_uavs=st.integers(1, 300),
    scale=st.integers(2, 5),
)
def test_mean_multi_scales_with_budget_split(
    total_symbols: int, num_uavs: int, scale: int
) -> None:
    reference = parse_config("")
    link, region = reference.link(), reference.region()
    base = mean_multi_uav_snr(link, region, total_symbols, num_uavs)
    more_symbols = mean_multi_uav_snr(link, region, total_symbols * scale, num_uavs)
    more_uavs = mean_multi_uav_snr(link, region, total_symbols, num_uavs * scale)
    assert more_symbols == pytest.approx(base * scale, rel=1e-12)
    assert more_uavs == pytest.approx(base / scale, rel=1e-12)


def test_mean_multi_rejects_zero_counts(
    reference_link: RadarLinkParams, reference_region: SensingRegion
) -> None:
    with pytest.raises(ValueError, match="total_symbols"):
        mean_multi_uav_snr(reference_link, reference_region, 0, 1)
    with pytest.raises(ValueError, match="num_uavs"):
        mean_multi_uav_snr(reference_link, reference_region, 14, 0)


def test_uavs_per_symbol_cancels_in_multi_mean(
    reference_link: RadarLinkParams, reference_region: SensingRegion
) -> None:
    # K appears in per-symbol power and in the symbol budget; it cancels.
    shared = replace(reference_link, uavs_per_symbol=4)
    assert mean_multi_uav_snr(shared, reference_region, 14, 5) == pytest.approx(
        mean_multi_uav_snr(reference_link, reference_region, 14, 5), rel=1e-12
    )
