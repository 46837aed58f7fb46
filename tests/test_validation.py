import csv
import warnings

import pytest

import uavcap.link
import uavcap.validation
from uavcap.config import parse_config
from uavcap.validation import (
    STATUSES,
    _density_checks,
    failed_checks,
    render_validation_csv,
    run_validation,
)

ESSENTIAL_CHECKS = {
    "density_mass_normalized",
    "density_mass_unnormalized",
    "inverse_quartic_range_moment",
    "sampler_ks_range",
    "sampler_ks_elevation",
    "sampler_ks_azimuth",
    "mean_snr_mc_vs_closed_form",
    "mean_snr_mode_gap",
    "detection_pd_rate",
    "detection_pfa_rate",
    "integration_energy_n1",
    "integration_snr_slope",
    "q_surrogate_max_abs_error",
    "pd_capacity_bisect_vs_scan",
    "surrogate_capacity_gap",
    "capacity_radius_monotone",
    "snr_capacity_frames_proportional",
    "pd_capacity_frames_monotone",
    "joint_pd_slow_then_sharp",
    "beamforming_gain_k1",
    "beamforming_gain_k4",
}


def test_reference_scenario_is_all_green() -> None:
    results = run_validation(parse_config(""))
    names = {result.name for result in results}
    assert ESSENTIAL_CHECKS <= names
    assert all(result.status in STATUSES for result in results)
    assert failed_checks(results) == []
    assert all(result.status == "pass" for result in results)


def test_tiny_trial_budget_goes_inconclusive_not_fail() -> None:
    results = run_validation(parse_config("trials = 10\n"))
    statuses = {result.name: result.status for result in results}
    assert "fail" not in statuses.values()
    assert "inconclusive" in statuses.values()
    # checks that do not sample still run at full strength
    assert statuses["q_surrogate_max_abs_error"] == "pass"
    assert statuses["density_mass_normalized"] == "pass"


def test_snr_check_catches_a_link_budget_defect(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    # Corrupt the constant used by the sampled estimate (the closed form
    # derives its own); the cross-check must notice the 30 dB gap.
    real = uavcap.link.pathloss_constant

    def corrupted(freq_mhz: float, rcs_m2: float) -> float:
        return real(freq_mhz, rcs_m2) * 1e3

    monkeypatch.setattr(uavcap.link, "pathloss_constant", corrupted)
    results = run_validation(parse_config("trials = 20000\n"))
    statuses = {result.name: result.status for result in results}
    assert statuses["mean_snr_mc_vs_closed_form"] == "fail"
    by_name = {result.name: result for result in results}
    gap = by_name["mean_snr_mc_vs_closed_form"]
    assert abs(gap.measured - gap.expected) > 25.0  # dB


def test_report_round_trips_config_and_schema() -> None:
    config = parse_config("trials = 10\npfa = 0.02\n")
    results = run_validation(config)
    text = render_validation_csv(config, results)
    lines = text.splitlines()
    assert lines[0] == "# uavcap validation"
    config_lines = [line[2:] for line in lines[1:] if line.startswith("#")]
    assert parse_config("\n".join(config_lines)) == config
    table = list(csv.reader(line for line in lines if not line.startswith("#")))
    assert table[0] == ["check", "status", "measured", "expected", "tolerance", "detail"]
    assert len(table) == len(results) + 1
    assert [row[0] for row in table[1:]] == [result.name for result in results]


def test_report_is_deterministic() -> None:
    config = parse_config("trials = 2000\n")
    first = render_validation_csv(config, run_validation(config))
    second = render_validation_csv(config, run_validation(config))
    assert first == second


@pytest.mark.parametrize("radius_km", ["1e-3", "1", "1e3"])
@pytest.mark.parametrize(
    "radius_ratio", ["1.0001", "1.01", "2", "10", "1e3", "1e5", "1e7", "1e9", "1e12"]
)
def test_quartic_moment_quadrature_holds_across_geometries(
    radius_km: str, radius_ratio: str
) -> None:
    # Quadrature with an absolute tolerance above the moment itself read
    # 11 % off at R = 1e3, eps = 1e3, and went negative at eps >= 1e7.
    config = parse_config("", {"radius_km": radius_km, "radius_ratio": radius_ratio})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = {row.name: row for row in _density_checks(config)}
    moment = rows["inverse_quartic_range_moment"]
    assert moment.status == "pass"
    assert abs(moment.measured - moment.expected) <= 1e-12 * moment.expected


TREND_CHECKS = (
    "capacity_radius_monotone",
    "snr_capacity_frames_proportional",
    "pd_capacity_frames_monotone",
)


@pytest.mark.parametrize(
    "overrides",
    [
        {"cpi_symbols": "33", "radius_km": "3"},
        {"radius_km": "1000", "radius_ratio": "1000"},
    ],
)
def test_joint_pd_below_the_floor_at_one_uav_is_a_vacuous_pass(
    overrides: dict[str, str],
) -> None:
    # The crossing is at count 1, so the curve has no second difference;
    # this once raised and took the other trend checks down with it.
    config = parse_config("", {"trials": "0", **overrides})
    rows = {result.name: result for result in run_validation(config)}
    assert "trend_checks" not in rows
    assert [rows[name].status for name in TREND_CHECKS] == ["pass"] * 3
    shape = rows["joint_pd_slow_then_sharp"]
    assert shape.status == "pass"
    assert shape.measured is None
    assert "vacuous pass" in shape.detail


def test_a_raising_trend_check_costs_only_its_own_row(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    def broken(*args: object) -> float:
        raise ValueError("broken")

    monkeypatch.setattr(uavcap.validation, "joint_pd", broken)
    rows = {r.name: r for r in run_validation(parse_config("", {"trials": "0"}))}
    assert rows["joint_pd_slow_then_sharp"].status == "fail"
    assert rows["joint_pd_slow_then_sharp"].detail == "ValueError: broken"
    assert [rows[name].status for name in TREND_CHECKS] == ["pass"] * 3
