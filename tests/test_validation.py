import csv
import inspect
import math
import re
import warnings
from dataclasses import replace
from pathlib import Path
from typing import Callable

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

import uavcap.link
import uavcap.sweeps
import uavcap.validation
from uavcap.cli import main
from uavcap.capacity import capacity_under_pd_bisect, capacity_under_pd_scan
from uavcap.config import ScenarioConfig, parse_config
from uavcap.geometry import Position, position_pdf, sample_positions
from uavcap.link import mean_single_uav_snr
from uavcap.montecarlo import CONFIDENCE_Z, TAG_POSITIONS, EmpiricalEstimate, substream
from uavcap.validation import (
    _KS_CRITICAL,
    STATUSES,
    CheckResult,
    _capacity_frames_checks,
    _density_checks,
    _detection_checks,
    _integration_checks,
    _joint_pd_slow_then_sharp,
    _result,
    _sampler_checks,
    _solver_agreement_check,
    _snr_checks,
    _surrogate_capacity_check,
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


@pytest.mark.parametrize("seed", ["1", "2", "3", "4", "5", "6"])
def test_snr_check_catches_a_closed_form_defect_at_radius_ratio_30(
    seed: str, monkeypatch: pytest.MonkeyPatch
) -> None:
    # Raise the closed form's E[r^-4] by 1.5 dB; the sampled oracle does not
    # read it. Sampling r^-4 from the r^2 density gave a tolerance of
    # 1.37-1.78 dB here and passed the defect at five of these six seeds.
    real = uavcap.link.expected_inverse_quartic_range
    monkeypatch.setattr(
        uavcap.link, "expected_inverse_quartic_range",
        lambda region: real(region) * 10.0**0.15,
    )
    config = parse_config("", {"radius_ratio": "30", "seed": seed})
    rows = {row.name: row for row in _snr_checks(config)}
    for name in ("mean_snr_mc_vs_closed_form", "mean_snr_mode_gap"):
        assert rows[name].status == "fail"
        assert rows[name].tolerance < 0.5


def test_mean_snr_rows_pass_at_a_wide_large_region() -> None:
    # Once 94 % low, 33 half-widths off, so `validate --set radius_km=1000
    # --set radius_ratio=1000` exited 1.
    rows = _snr_checks(parse_config("", {"radius_km": "1000", "radius_ratio": "1000"}))
    assert [row.status for row in rows] == ["pass", "pass"]


@pytest.mark.parametrize("seed", ["1", "2", "3"])
def test_snr_check_catches_a_small_closed_form_defect(
    seed: str, monkeypatch: pytest.MonkeyPatch
) -> None:
    # +0.08 dB (1.9 %) on E[r^-4]: about 9 SE at the default trials, yet
    # inside the 0.1 dB floor the rows once kept.
    real = uavcap.link.expected_inverse_quartic_range
    monkeypatch.setattr(
        uavcap.link, "expected_inverse_quartic_range",
        lambda region: real(region) * 10.0**0.008,
    )
    rows = _snr_checks(parse_config("", {"seed": seed}))
    assert [row.status for row in rows] == ["fail", "fail"]


@pytest.mark.parametrize("overrides", [{}, {"radius_ratio": "1000"}], ids=["reference", "ratio1000"])
def test_mean_snr_rows_false_fail_at_their_stated_level(overrides: dict) -> None:
    # Both rows read one estimate's deviation, so they fail together; at
    # 3 SE a sound oracle fails about 0.27 % of seeds, about 0.54 of these 200.
    failing_seeds = sum(
        any(
            row.status == "fail"
            for row in _snr_checks(parse_config("", {**overrides, "seed": str(seed)}))
        )
        for seed in range(1, 201)
    )
    assert failing_seeds <= 3


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


# Reference values from scipy: dblquad for the masses, quad for the moment,
# kstest and kstwobign for the KS rows.
@pytest.mark.parametrize("radius_km", ["1e-3", "1", "1e3"])
@pytest.mark.parametrize("max_elevation_rad", ["1e-9", "0.3", repr(math.pi / 2.0)])
@pytest.mark.parametrize("radius_ratio", [repr(1.0 + 1e-7), "1.5", "10", "1e6", "1e50"])
def test_density_quadrature_matches_scipy(
    radius_km: str, max_elevation_rad: str, radius_ratio: str
) -> None:
    config = parse_config("", {
        "radius_km": radius_km, "max_elevation_rad": max_elevation_rad,
        "radius_ratio": radius_ratio,
    })
    region = config.region()
    rows = {row.name: row for row in _density_checks(config)}
    for mode in ("normalized", "unnormalized"):
        mass, _ = integrate.dblquad(
            lambda el, r: math.pi * position_pdf(region, Position(r, el, math.pi / 2.0), mode),
            region.inner_range, region.max_range, 0.0, region.max_elevation,
        )
        assert rows[f"density_mass_{mode}"].measured == pytest.approx(mass, rel=1e-13)
    e3 = region.radius_ratio**3
    moment, _ = integrate.quad(
        lambda u: 3.0 * e3 * math.exp(-u) / (region.max_range**3 * (e3 - 1.0)),
        math.log(region.inner_range), math.log(region.max_range),
        epsabs=0.0, epsrel=1e-12,
    )
    assert rows["inverse_quartic_range_moment"].expected == pytest.approx(moment, rel=1e-13)


@pytest.mark.parametrize("trials", [3, 1000, 100_000])
def test_ks_statistic_matches_scipy_bit_for_bit(trials: int) -> None:
    config = parse_config("", {"trials": str(trials)})
    region = config.region()
    rng = substream(config.seed, TAG_POSITIONS, 0, salt=101)
    ranges, elevations, azimuths = sample_positions(region, rng, trials)
    inner3, outer3 = region.inner_range**3, region.max_range**3
    probes = (
        (ranges**3 - inner3) / (outer3 - inner3),
        np.sin(elevations) / math.sin(region.max_elevation),
        azimuths / math.pi,
    )
    assert [row.measured for row in _sampler_checks(config)] == [
        float(stats.kstest(unit, "uniform").statistic) for unit in probes
    ]


def test_ks_critical_value_is_the_kolmogorov_quantile() -> None:
    assert _KS_CRITICAL == float(stats.kstwobign.isf(0.01 / 3))


@pytest.mark.parametrize(
    "ratio, trials, lattice, status",
    [
        ("1.0000000000000002", "2000", 3, "inconclusive"),
        ("1.00000000000001", "100000", 91, "inconclusive"),
        ("1.0000000000001", "100000", 901, "inconclusive"),
        ("1.0000000000003", "100000", 2703, "pass"),
    ],
)
def test_sampler_range_row_on_a_coarse_float_lattice_is_inconclusive(
    ratio: str, trials: str, lattice: int, status: str
) -> None:
    # Near radius_ratio 1 the ranges take only the floats in [R/eps, R], so
    # the KS statistic is about 1/k whatever the sampler: the first two once
    # failed at 0.3325 against 0.04 and 0.01013 against 0.005655. At 901
    # floats the row failed 16 of seeds 1-1000, past the 1 %/3 level's
    # binomial bound of 8; from 2653 floats up it is tested.
    config = parse_config("", {"radius_ratio": ratio, "trials": trials})
    range_row, *others = _sampler_checks(config)
    assert range_row.status == status
    assert (f"at most {lattice} floats" in range_row.detail) == (status == "inconclusive")
    assert [row.status for row in others] == ["pass", "pass"]


TREND_CHECKS = (
    "capacity_radius_monotone",
    "snr_capacity_frames_proportional",
    "pd_capacity_frames_monotone",
)


@pytest.mark.parametrize(
    "overrides",
    [
        {"radius_km": "3"},
        {"radius_km": "1000", "radius_ratio": "1000"},
    ],
)
def test_a_joint_pd_crossing_at_one_uav_reads_the_floor_check_alone(
    overrides: dict[str, str], monkeypatch: pytest.MonkeyPatch
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
    assert "up to the crossing at 1;" in shape.detail
    # A joint PD that meets the floor at the solved crossing still fails.
    monkeypatch.setattr(uavcap.validation, "joint_pd", lambda snr, count, pfa: 1.0)
    assert [row.status for row in _joint_pd_slow_then_sharp(config)] == ["fail"]


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


@pytest.mark.parametrize(
    "overrides, crossing",
    [
        ({"frames": "4", "surrogate_mode": "fixed", "pfa": "0.01"}, 93),
        ({"radius_ratio": "1000"}, 2431),
        ({"pd_threshold": "0.99"}, 29),
        ({"frames": "1000000000"}, 10113966867),
        # Below PD = 1/e the curve bends back, so PD's own second
        # differences turn positive; -ln PD stays convex.
        ({"pd_threshold": "0.3"}, 54),
        # Low floors, where PD at half the crossing sits below 0.99 on a
        # sound curve.
        ({"pd_threshold": "0.2"}, 58),
        ({"pd_threshold": "0.1"}, 62),
        # Deep floors, where -ln PD at half the crossing reaches 0.22 of -ln
        # of the floor.
        ({"pd_threshold": "1e-100"}, 300),
        ({"pfa": "0.4", "pd_threshold": "1e-50"}, 555),
        # The last count read, 1500, is past the crossing, and PD there
        # underflows to 0: its -ln once raised a math domain error.
        ({"pfa": "1e-12", "radius_ratio": "1000", "pd_threshold": "1e-300"}, 1479),
    ],
)
def test_joint_pd_shape_is_read_up_to_the_solved_crossing(
    overrides: dict[str, str], crossing: int, monkeypatch: pytest.MonkeyPatch
) -> None:
    # The check once read counts 1-60 only and held the drop to an absolute
    # second difference, so crossings past 60 and high floors failed.
    calls = 0
    real = uavcap.validation.joint_pd

    def counting(*args: object) -> float:
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(uavcap.validation, "joint_pd", counting)
    [row] = _joint_pd_slow_then_sharp(parse_config("", overrides))
    assert row.status == "pass"
    assert f"up to the crossing at {crossing};" in row.detail
    assert row.measured >= -4.0 * math.ulp(1.0)
    # At most 60 grid counts, then the capacity and the crossing.
    assert calls <= 62


@pytest.mark.parametrize(
    "overrides", [{}, {"pd_threshold": "1e-100"}, {"pfa": "0.4", "pd_threshold": "1e-50"}]
)
def test_joint_pd_shape_still_fails_a_3_db_joint_pd_defect(
    overrides: dict[str, str], monkeypatch: pytest.MonkeyPatch
) -> None:
    # Half the SNR in the joint PD the row reads, against the solver's
    # crossing: PD has fallen most of the way to the floor by half the count
    # (0.9745 against 0.95 at the reference).
    real = uavcap.validation.joint_pd
    monkeypatch.setattr(
        uavcap.validation, "joint_pd", lambda snr, count, pfa: real(snr / 2.0, count, pfa)
    )
    [row] = _joint_pd_slow_then_sharp(parse_config("", overrides))
    assert row.status == "fail"


_REAL_JOINT_PD = uavcap.validation.joint_pd


@pytest.mark.parametrize("overrides", [{}, {"pd_threshold": "1e-100"}])
@pytest.mark.parametrize(
    "defect",
    [
        lambda snr, count, pfa: _REAL_JOINT_PD(snr / 10.0**0.1, count, pfa),
        lambda snr, count, pfa: _REAL_JOINT_PD(snr, count, 2.0 * pfa),
        lambda snr, count, pfa: _REAL_JOINT_PD(snr, count, pfa) ** 0.5,
    ],
    ids=["1_db_loss", "doubled_pfa", "half_the_count"],
)
def test_joint_pd_shape_fails_a_joint_pd_that_misses_the_solved_crossing(
    defect: Callable[[float, int, float], float], overrides: dict[str, str],
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    # Each defect keeps -ln joint PD convex from count 0, but moves the count
    # where the joint PD leaves the floor off the solvers' crossing.
    monkeypatch.setattr(uavcap.validation, "joint_pd", defect)
    [row] = _joint_pd_slow_then_sharp(parse_config("", overrides))
    assert row.status == "fail"


@settings(max_examples=200, deadline=None)
@given(
    radius_ratio=st.floats(math.log10(1.01), 100.0).map(lambda exponent: 10.0**exponent),
    pfa=st.floats(-100.0, math.log10(0.49)).map(lambda exponent: 10.0**exponent),
    pd_threshold=st.floats(-300.0, math.log10(0.999)).map(lambda exponent: 10.0**exponent),
    frames=st.integers(1, 10**6),
    combined_gain_db=st.floats(0.0, 60.0),
)
# Sound curves that failed a half-count bound and a parabola once held here.
@example(2.0, 0.05, 1e-160, 1, 22.5)
@example(10.0, 1e-100, 1e-50, 1, 22.5)
def test_joint_pd_shape_passes_across_the_accepted_domain(
    radius_ratio: float, pfa: float, pd_threshold: float, frames: int,
    combined_gain_db: float,
) -> None:
    config = replace(
        parse_config(""), radius_ratio=radius_ratio, pfa=pfa, pd_threshold=pd_threshold,
        frames=frames, combined_gain_db=combined_gain_db,
    )
    [row] = _joint_pd_slow_then_sharp(config)
    assert row.status == "pass", row.detail


@pytest.mark.parametrize(
    "overrides",
    [
        ("pd_threshold=1e-100",), ("pfa=0.4",), ("pfa=0.4", "pd_threshold=1e-50"),
        ("radius_ratio=2", "pd_threshold=1e-160"), ("pfa=1e-100", "pd_threshold=1e-50"),
        ("combined_gain_db=300",),
    ],
    ids=[
        "deep_floor", "high_pfa", "both", "low_ratio_deep_floor", "low_pfa_deep_floor",
        "high_gain",
    ],
)
def test_validate_passes_at_a_deep_floor_or_a_high_pfa(
    overrides: tuple[str, ...], capsys
) -> None:
    # Sound builds that once failed joint_pd_slow_then_sharp (deep floors,
    # most at radius_ratio 1.5 to 2) or surrogate_capacity_gap (high pfa).
    # At 300 dB every agreement scan once stopped at its cap.
    argv = ["validate", "--trials", "0"]
    for assignment in overrides:
        argv += ["--set", assignment]
    assert main(argv) == 0
    assert ",fail," not in capsys.readouterr().out


@pytest.mark.parametrize("pd_threshold", ["0.05", "0.1", "0.2", "0.3", "0.5"])
def test_joint_pd_shape_with_one_second_difference_passes(
    pd_threshold: str, capsys
) -> None:
    # The crossing is 3, so PD has one second difference, and on these sound
    # curves it is positive: a bound on PD's bend once failed them.
    argv = ["validate", "--trials", "0", "--set", "pfa=1e-6"]
    argv += ["--set", "radius_ratio=1.5", "--set", f"pd_threshold={pd_threshold}"]
    assert main(argv) == 0
    [row] = [
        line for line in capsys.readouterr().out.splitlines()
        if line.startswith("joint_pd_slow_then_sharp,")
    ]
    assert row.startswith("joint_pd_slow_then_sharp,pass,")
    assert "up to the crossing at 3;" in row


@pytest.mark.parametrize(
    "curve",
    [
        (0.999, 0.5, 0.45),  # -ln PD concave over counts 1 to 3
        (0.6, 0.55, 0.01),  # convex over counts 1 to 3, not from count 0
    ],
)
def test_joint_pd_shape_fails_a_curve_not_convex_from_count_0(
    curve: tuple[float, ...], monkeypatch: pytest.MonkeyPatch
) -> None:
    # At crossing 3 the grid is counts 0 to 3, with -ln PD = 0 at count 0.
    pds = dict(zip((1, 2, 3), curve))
    monkeypatch.setattr(uavcap.validation, "joint_pd", lambda snr, count, pfa: pds[count])
    config = parse_config(
        "", {"pfa": "1e-6", "radius_ratio": "1.5", "pd_threshold": "0.5"}
    )
    [row] = _joint_pd_slow_then_sharp(config)
    assert "up to the crossing at 3;" in row.detail
    assert row.measured < 0.0
    assert row.status == "fail"


@pytest.mark.parametrize(
    "overrides, deviation",
    [
        ({"radius_km": "1e-4"}, 256.0),
        ({"tx_power_dbm": "200"}, 2.0),
        ({"radius_km": "1e-5"}, 2097152.0),
    ],
)
def test_snr_proportionality_allows_for_float_spacing_past_2_53_uavs(
    overrides: dict[str, str], deviation: float
) -> None:
    # Past 2**53 UAVs adjacent floats are more than one apart, so the
    # absolute 1-UAV bound once failed these rows on sound capacities.
    row, _ = _capacity_frames_checks(parse_config("", overrides))
    assert row.measured == deviation
    assert row.status == "pass"
    # Each deviation is at least half a float spacing of the largest capacity.
    assert row.tolerance <= 1.0 + 4.0 * deviation


def test_snr_proportionality_still_fails_a_two_uav_shift(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    config = parse_config("")
    row, _ = _capacity_frames_checks(config)
    assert (row.status, row.measured, f"{row.tolerance:.10g}") == ("pass", 0.0, "1")
    real = uavcap.sweeps.capacity_under_snr
    shifted_symbols = 5 * config.symbols_per_frame

    def shifted(query):
        result = real(query)
        if query.total_symbols == shifted_symbols:
            return replace(result, max_uavs=result.max_uavs + 2)
        return result

    monkeypatch.setattr(uavcap.sweeps, "capacity_under_snr", shifted)
    row, _ = _capacity_frames_checks(config)
    assert row.status == "fail"
    assert row.measured > 1.8


def test_frame_trend_rows_read_the_capacity_vs_frames_sweep(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    # A sweep row that ignores its point solves every frame count at one
    # frame: the printed capacities stop growing with the frames column.
    real = uavcap.sweeps._capacity_row

    def ignores_point(kind, config, value):
        return {**real(kind, config, 1.0), "frames": int(value)}

    config = parse_config("")
    row, _ = _capacity_frames_checks(config)
    assert row.status == "pass" and row.detail.endswith(", frames 1..10")
    monkeypatch.setattr(uavcap.sweeps, "_capacity_row", ignores_point)
    row, _ = _capacity_frames_checks(config)
    assert row.status == "fail"


def test_validate_fails_the_fixed_surrogates_falling_frame_capacity(capsys) -> None:
    # An open fault of surrogate_mode=fixed: its out-of-window fallback
    # makes capacity-vs-frames print pd_capacity 5 at 5 frames and 4 at 6.
    # The frame trend row catches it, and no other row fails.
    argv = ["validate", "--trials", "0"]
    for assignment in ("surrogate_mode=fixed", "pfa=1e-5", "radius_km=2"):
        argv += ["--set", assignment]
    assert main(argv) == 1
    rows = csv.DictReader(
        line for line in capsys.readouterr().out.splitlines() if not line.startswith("#")
    )
    assert [r["check"] for r in rows if r["status"] == "fail"] == ["pd_capacity_frames_monotone"]


def test_validate_reads_each_trend_sweep_once(monkeypatch: pytest.MonkeyPatch) -> None:
    # Both frame rows come from one capacity-vs-frames sweep; the radius
    # row reads capacity-vs-radius once per power level.
    kinds = []
    real = uavcap.validation.run_sweep

    def counting(kind, config):
        kinds.append(kind)
        return real(kind, config)

    monkeypatch.setattr(uavcap.validation, "run_sweep", counting)
    run_validation(parse_config("", {"trials": "0"}))
    assert kinds == ["capacity-vs-radius"] * 3 + ["capacity-vs-frames"]


def test_trend_rows_read_the_default_grids_and_name_a_sweep_error() -> None:
    # The sweep_* keys move the CLI's grids, not the trend rows'.
    trend = {"capacity_radius_monotone", "snr_capacity_frames_proportional",
             "pd_capacity_frames_monotone"}
    rows = lambda overrides: [
        r for r in run_validation(parse_config("", {"trials": "0", **overrides}))
        if r.name in trend
    ]
    assert rows({"sweep_start": "3", "sweep_step": "0.5"}) == rows({})
    broken = rows({"radius_ratio": "1e200"})
    assert [r.status for r in broken] == ["fail"] * 3
    assert broken[0].detail.startswith("ValueError: capacity-vs-radius: error: ")
    assert broken[1].detail.startswith("ValueError: capacity-vs-frames: error: ")


def _slope_row(config) -> CheckResult:
    rows = {r.name: r for r in _integration_checks(config)}
    return rows["integration_snr_slope"]


def test_a_slope_too_uncertain_to_resolve_is_inconclusive_not_fail(capsys) -> None:
    # At 3 km the echo is far below the noise, so each energy-derived SNR
    # is a small difference of two near-equal energies: the slope reads
    # about 0.94, but its 3 SE (about 0.37) dwarfs the 0.05 tolerance.
    assert main(["validate", "--set", "radius_km=3"]) == 0
    assert ",fail," not in capsys.readouterr().out
    slope = _slope_row(parse_config("", {"radius_km": "3"}))
    assert slope.status == "inconclusive"
    assert slope.tolerance == 0.05
    assert "3 SE = 0.37 > 0.05" in slope.detail


def test_an_incoherent_energy_kernel_still_fails_the_slope(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    # A kernel whose summed signal amplitude grows as sqrt(N), so that its
    # signal energy grows as N rather than N^2, flattens the slope to about
    # 0; the reference point resolves that as a fail, not an inconclusive.
    real = uavcap.validation.mc_integration_energy

    def incoherent(link, amplitude, plan, salt):
        return real(link, amplitude / math.sqrt(link.cpi_symbols), plan, salt=salt)

    monkeypatch.setattr(uavcap.validation, "mc_integration_energy", incoherent)
    rows = {r.name: r for r in _integration_checks(parse_config(""))}
    slope = rows["integration_snr_slope"]
    assert slope.status == "fail"
    assert abs(slope.measured) < 0.05
    # At N = 1 the two laws agree; at N = 3 and 8 the missing echo energy
    # is over a hundred tolerances, far past the rounding allowance.
    assert [rows[f"integration_energy_n{n}"].status for n in (1, 3, 8)] == [
        "pass", "fail", "fail",
    ]


@pytest.mark.parametrize(
    "overrides",
    [pytest.param({"radius_km": km}, id=km) for km in ("1e-5", "1e-20", "1e-50")]
    + [
        pytest.param({"combined_gain_db": db}, id=f"combined_gain_db={db}")
        for db in ("200", "250")
    ],
)
def test_energy_rows_keep_their_spread_when_the_echo_swamps_the_noise(
    overrides: dict,
) -> None:
    # At 1e-5 km the echo outweighs the noise by about 1e19. Taken about
    # zero, the one-pass variance cancelled there to a tolerance of 0 (a
    # fail), and at 1e-50 km its squares overflowed to a nan tolerance. At
    # 200 dB the n3 row once failed at every seed, on the rounding of the
    # echo energy alone: its 3 SE were below one ulp of the expectation.
    config = parse_config("", {**overrides, "trials": "20000"})
    rows = {r.name: r for r in _integration_checks(config)}
    for n in (1, 3, 8):
        row = rows[f"integration_energy_n{n}"]
        noise = n * config.link().noise_power_mw
        echo = row.expected - noise
        # Var |N A + x|^2 = 2 (N A)^2 N sigma^2 + (N sigma^2)^2.
        se = math.sqrt((2.0 * echo * noise + noise * noise) / config.trials)
        allowance = 4.0 * math.ulp(row.expected)
        assert row.status == "pass"
        assert row.tolerance == pytest.approx(3.0 * se + allowance, rel=0.05)


def test_energy_rows_do_not_fail_on_rounding_anywhere_the_echo_swamps_the_noise() -> None:
    # Without the rounding allowance, integration_energy_n3 failed at 46 of
    # these 123 points, wherever (N A)^2 and N^2 A^2 rounded apart.
    fails = [
        (db, km, row.name)
        for db in range(100, 301, 5)
        for km in ("0.01", "1", "100")
        for row in _integration_checks(
            parse_config("", {"combined_gain_db": str(db), "radius_km": km, "trials": "2000"})
        )
        if row.status != "pass"
    ]
    assert fails == []


def test_detection_rows_false_fail_at_their_stated_level() -> None:
    # Each row tests at 3 binomial SE, so a sound kernel fails about 0.27 %
    # of its draws: about 1.1 of these 400.
    fails = sum(
        row.status == "fail"
        for seed in range(1, 201)
        for row in _detection_checks(parse_config("", {"seed": str(seed)}))
    )
    assert fails <= 4


SE_GROUPS = (_snr_checks, _detection_checks, _integration_checks)
SE_ROWS = [name for group in SE_GROUPS for name in group.names]


def _se_row_at(name: str, scale: float, monkeypatch: pytest.MonkeyPatch) -> CheckResult:
    """The row `name` at the reference with every estimate on its
    expectation, and 3 SE at `scale` times the row's bound."""
    config = parse_config("")
    if name.startswith("mean_snr"):
        # 3 SE in dB = 3 * (CI half-width in dB) / z, against 3 dB.
        def mean_snr(link, region, plan):
            mean = mean_single_uav_snr(link, region, "normalized")
            half_width_db = CONFIDENCE_Z * scale
            return EmpiricalEstimate(mean, mean * (10.0 ** (half_width_db / 10.0) - 1.0), 1)

        monkeypatch.setattr(uavcap.validation, "mc_mean_snr", mean_snr)
    elif name.startswith("detection"):
        # The binomial SE is set by the trial count: the first count at
        # which 3 SE is within 0.05 passes, the one below is inconclusive.
        monkeypatch.setattr(
            uavcap.validation, "mc_detection_rates",
            lambda snr, pfa, n, plan: (
                EmpiricalEstimate(uavcap.validation.pd_single(snr, pfa), 0.0, 1),
                EmpiricalEstimate(pfa, 0.0, 1),
            ),
        )
        p = {r.name: r for r in _detection_checks(config)}[name].expected
        first = next(n for n in range(1, 10**4) if 3.0 * math.sqrt(p * (1.0 - p) / n) <= 0.05)
        config = replace(config, trials=first if scale < 1.0 else first - 1)
    else:
        # Energy rows: 3 SE against 10 % of the expectation. The slope: each
        # ln SNR_i has relative SE s, so the slope's SE is s / |ln N - mean|.
        logs = np.log([1, 3, 8])
        slope_s = scale * 0.05 * float(np.linalg.norm(logs - logs.mean())) / 3.0

        def energy(link, amplitude, plan, salt):
            n = link.cpi_symbols
            signal = link.gain_amplitude * math.sqrt(
                link.tx_power_mw / link.uavs_per_symbol
            ) * amplitude
            expected = n * n * signal**2 + n * link.noise_power_mw
            if name == "integration_snr_slope":
                se = slope_s * (expected - n * link.noise_power_mw)
            else:
                se = (scale if name.endswith(f"n{n}") else 0.5) * 0.1 * expected / 3.0
            return EmpiricalEstimate(expected, CONFIDENCE_Z * se, 1)

        monkeypatch.setattr(uavcap.validation, "mc_integration_energy", energy)
    group = next(g for g in SE_GROUPS if name in g.names)
    return {r.name: r for r in group(config)}[name]


@pytest.mark.parametrize("name", SE_ROWS)
def test_each_standard_error_row_is_inconclusive_exactly_past_its_bound(
    name: str, monkeypatch: pytest.MonkeyPatch
) -> None:
    inside = _se_row_at(name, 1.0 - 1e-9, monkeypatch)
    outside = _se_row_at(name, 1.0 + 1e-9, monkeypatch)
    assert (inside.status, outside.status) == ("pass", "inconclusive")
    assert re.fullmatch(r"inconclusive: 3 SE = \S+ > \S+", outside.detail)


def test_every_standard_error_row_allows_4_ulps_of_its_expectation() -> None:
    # The rule's rounding allowance: with no spread at all, a row still
    # passes 4 ulps from its expectation and fails 5 ulps from it. Only
    # the slope fixes its own tolerance, 0.05.
    config = parse_config("")
    rows = [row for group in SE_GROUPS for row in group.__wrapped__(config)]
    assert len(rows) == len(SE_ROWS)
    for name, row in zip(SE_ROWS, rows):
        result = _result(name, row)
        if name == "integration_snr_slope":
            assert (row.tolerance, result.tolerance) == (0.05, 0.05)
            continue
        assert result.tolerance == 3.0 * row.se + 4.0 * math.ulp(row.expected)
        ulp = math.ulp(row.expected)
        verdicts = [
            _result(name, row._replace(se=0.0, measured=row.expected + k * ulp)).status
            for k in (-4, 4, 5)
        ]
        assert verdicts == ["pass", "pass", "fail"], name


def test_every_sampled_check_without_trials_is_inconclusive() -> None:
    # With no trials there is nothing to test. The sampler once ran its KS
    # tests on one sample, whose statistic never reaches the critical value,
    # and so passed vacuously.
    rows = run_validation(parse_config("", {"trials": "0"}))
    no_trials = [r for r in rows if r.detail == "inconclusive: trials = 0"]
    assert [r.name for r in no_trials] == [
        "sampler_ks_range", "sampler_ks_elevation", "sampler_ks_azimuth",
        "mean_snr_mc_vs_closed_form", "mean_snr_mode_gap",
        "detection_pd_rate", "detection_pfa_rate",
        "integration_energy_n1", "integration_energy_n3",
        "integration_energy_n8", "integration_snr_slope",
    ]
    assert all(r.status == "inconclusive" and r.measured is None for r in no_trials)


@pytest.mark.parametrize(
    "trials, inconclusive", [(1, True), (2, True), (3, True), (4, False)]
)
def test_sampler_checks_that_cannot_fail_are_inconclusive(
    trials: int, inconclusive: bool
) -> None:
    # The KS statistic is at most 1. Below n = 4 the critical value at
    # 1 %/3 (1.79 at n = 1, 1.26 at n = 2, 1.03 at n = 3) exceeds it, and
    # the rows could only pass.
    rows = [
        r for r in run_validation(parse_config("", {"trials": str(trials)}))
        if r.name.startswith("sampler_ks_")
    ]
    assert len(rows) == 3
    assert all((r.status == "inconclusive") == inconclusive for r in rows)
    assert all((r.tolerance >= 1.0) == inconclusive for r in rows)


def test_solver_agreement_fails_a_scan_stopped_short(monkeypatch: pytest.MonkeyPatch) -> None:
    # No drawn scan reaches its cap, so a scan stopped early is a mismatch
    # like any other: a cap of 100 stops it on 15 of the 50 reference
    # scenarios, short of capacities up to 2706.
    config = parse_config("")
    [row] = _solver_agreement_check(config)
    assert row.detail == "50 random scenarios, worst gap 0 UAVs"
    real = uavcap.validation.capacity_under_pd_scan
    monkeypatch.setattr(
        uavcap.validation, "capacity_under_pd_scan", lambda query: real(query, 100)
    )
    [row] = _solver_agreement_check(config)
    assert (row.status, row.measured) == ("fail", 15.0)
    assert row.detail == "50 random scenarios, worst gap 2606 UAVs"


@pytest.mark.parametrize("offset", [1, -1])
@pytest.mark.parametrize("gain_db", ["22.5", "60", "300"])
def test_solver_agreement_fails_a_bisection_one_count_off_the_scan(
    gain_db: str, offset: int, monkeypatch: pytest.MonkeyPatch
) -> None:
    # No scan reaches its cap, so a count one off on either side is a
    # mismatch in every scenario. The scenarios once took the caller's gain:
    # from 60 dB every scan stopped at its cap and was read as a lower
    # bound, and both planted counts passed.
    real = uavcap.validation.capacity_under_pd_bisect

    def off_by_one(query):
        result = real(query)
        return replace(result, max_uavs=result.max_uavs + offset)

    monkeypatch.setattr(uavcap.validation, "capacity_under_pd_bisect", off_by_one)
    [row] = _solver_agreement_check(parse_config("", {"combined_gain_db": gain_db}))
    assert (row.status, row.measured) == ("fail", 50.0)
    assert row.detail == "50 random scenarios, worst gap 1 UAVs"


@pytest.mark.parametrize("seed", ["1", "2", "3"])
@pytest.mark.parametrize(
    "key, value",
    [("combined_gain_db", gain) for gain in ("30", "40", "60", "300")]
    + [("noise_power_dbm", "-110"), ("rcs_m2", "1"), ("symbols_per_frame", "100"),
       ("carrier_freq_mhz", "1e-300")],
)
def test_solver_agreement_reads_only_the_seed(key: str, value: str, seed: str) -> None:
    # The scenarios are drawn about the reference point, so no other key
    # reaches them. At 40 dB 7 of the 50 scans once stopped at their cap,
    # and at 60 and 300 dB all 50; the 1e-300 carrier raised.
    reference = _solver_agreement_check(parse_config("", {"seed": seed}))
    moved = _solver_agreement_check(parse_config("", {"seed": seed, key: value}))
    assert moved == reference
    assert [r.status for r in moved] == ["pass"]


def test_solver_agreement_passes_at_a_vanishing_carrier_without_a_warning() -> None:
    # The 1e-300 carrier once reached the scenarios: numpy scalars carried
    # its divide by zero into the solvers as inf, with a RuntimeWarning on
    # stderr, and later Python floats raised it as a failing row.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        [row] = _solver_agreement_check(parse_config("", {"carrier_freq_mhz": "1e-300"}))
    assert row.status == "pass"


def test_solver_agreement_domain_corner_stays_below_the_scan_cap() -> None:
    # Capacity falls with radius and floor and rises with ratio, power, pfa
    # and frames; the normalized density ignores elevation and the
    # unnormalized one scales SNR by sin(elevation) <= 1. So the drawn
    # domain's corner bounds every scenario of the row.
    corner = ScenarioConfig(
        radius_km=0.5, radius_ratio=20.0, tx_power_dbm=60.0, pd_threshold=0.8,
        pfa=0.2, frames=10,
    ).query()
    cap = inspect.signature(capacity_under_pd_scan).parameters["cap"].default
    assert capacity_under_pd_bisect(corner).max_uavs == 15_314 < cap


@pytest.mark.parametrize(
    "ratio, seed",
    [("1.0000000000001", str(seed)) for seed in range(1, 7)]
    + [("1.000000000001", "3"), ("1.000000000001", "5"), ("1.0000000000000002", "7"),
       ("1.00000001", "7")],
)
def test_mean_snr_rows_do_not_fail_where_rounding_hides_the_spread(
    ratio: str, seed: str
) -> None:
    # Within about 4e-7 of ratio 1 the one-pass variance of the unshifted
    # mean-SNR values is lost to cancellation, once clamped to a tolerance
    # of 0; the interval is unbounded instead.
    rows = _snr_checks(parse_config("", {"radius_ratio": ratio, "seed": seed, "trials": "2000"}))
    assert [(r.status, r.tolerance) for r in rows] == [("inconclusive", math.inf)] * 2


@pytest.mark.parametrize(
    "key, value",
    [("radius_ratio", "1000")]
    + [("pfa", pfa) for pfa in ("0.3", "0.35", "0.4", "0.45", "0.49")]
    + [("combined_gain_db", "30"), ("noise_power_dbm", "-110"), ("rcs_m2", "1"),
       ("symbols_per_frame", "100")],
)
def test_surrogate_capacity_gap_keeps_the_reference_neighborhood(key: str, value: str) -> None:
    # The grid is a neighborhood of the reference point, so no key it does
    # not sweep reaches it. At radius_ratio = 1000 the grid's capacities
    # reach the thousands and the expanded surrogate once missed by 77 UAVs;
    # at these pfa values it missed by 2 to 4 UAVs, and under these link
    # budgets by 8 to 75, on a sound build.
    reference = _surrogate_capacity_check(parse_config(""))
    moved = _surrogate_capacity_check(parse_config("", {key: value}))
    assert moved == reference
    assert [r.status for r in moved] == ["pass"]


def test_readme_validate_rows_table_matches_the_registry() -> None:
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("### `validate` rows")[1]
    table = [
        [cell.strip() for cell in line.split("|")[1:-1]]
        for line in section.split("\n## ")[0].splitlines()
        if line.startswith("| `")
    ]
    documented = [(re.fullmatch(r"`(\w+)`", row[0])[1], row[1]) for row in table]
    registered = [
        (name, f"`{group.__name__.lstrip('_')}`")
        for group in uavcap.validation._CHECK_GROUPS
        for name in group.names
    ]
    assert documented == registered
    # A row documented as sampled is exactly one that has nothing to test
    # without trials.
    no_trials = {
        r.name for r in run_validation(parse_config("", {"trials": "0"}))
        if r.detail == "inconclusive: trials = 0"
    }
    assert {name for (name, _), row in zip(documented, table) if row[2] == "sampled"} == no_trials
    assert {row[2] for row in table} == {"deterministic bound", "sampled", "qualitative"}
