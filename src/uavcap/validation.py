"""Cross-validation of every closed form against an independent route.

Each check pairs an analytic quantity with an oracle that does not share
its derivation: quadrature for densities and moments, Kolmogorov-Smirnov
tests for the sampler, Monte Carlo for SNR/detection/integration, linear
scan for the binary-search capacity, and exact Q for the surrogate.

Statistical honesty rule: a Monte Carlo check whose confidence interval is
too wide to resolve its tolerance reports ``inconclusive`` (with the
reason) instead of pass or fail. Deterministic checks never do.
"""

from __future__ import annotations

import io
import csv
import math
from dataclasses import dataclass, replace

from .arrays import UpaGeometry, effective_channel_gain
from .capacity import (
    capacity_under_pd_bisect,
    capacity_under_pd_scan,
    capacity_under_snr,
    mean_snr_at,
)
from .config import ScenarioConfig, with_overrides
from .detection import joint_pd, pd_single, q, q_exp_approx, q_inv
from .geometry import (
    Position,
    SensingRegion,
    expected_inverse_quartic_range,
    position_pdf,
    sample_positions,
)
from .link import linear_to_db, mean_single_uav_snr, path_gain_squared
from .montecarlo import (
    EmpiricalEstimate,
    TAG_POSITIONS,
    confidence_z,
    mc_detection_rates,
    mc_integration_energy,
    mc_mean_snr,
    substream,
)

# Substream tag for the random scenarios of the solver agreement check
# (montecarlo reserves 1..3 for its estimators).
_TAG_SCENARIOS = 4

STATUSES = ("pass", "fail", "inconclusive")


@dataclass(frozen=True)
class CheckResult:
    """One validation outcome; measured/expected/tolerance are None when
    the check is qualitative."""

    name: str
    status: str
    measured: float | None = None
    expected: float | None = None
    tolerance: float | None = None
    detail: str = ""


def _verdict(ok: bool) -> str:
    return "pass" if ok else "fail"


def _quantitative(
    name: str, measured: float, expected: float, tolerance: float, detail: str = ""
) -> CheckResult:
    ok = abs(measured - expected) <= tolerance
    return CheckResult(name, _verdict(ok), measured, expected, tolerance, detail)


def _density_checks(config: ScenarioConfig) -> list[CheckResult]:
    # scipy is imported here and in _sampler_checks only, and numpy only in
    # the groups that build arrays, so that importing the package (and every
    # command but `validate`) does not pay for them.
    from scipy import integrate

    region = config.region()

    def mass(mode: str) -> float:
        value, _ = integrate.dblquad(
            lambda el, r: math.pi
            * position_pdf(region, Position(r, el, math.pi / 2.0), mode),
            region.inner_range,
            region.max_range,
            0.0,
            region.max_elevation,
        )
        return value

    return [
        _quantitative(
            "density_mass_normalized", mass("normalized"), 1.0, 1e-6,
            "quadrature over the support",
        ),
        _quantitative(
            "density_mass_unnormalized",
            mass("unnormalized"),
            math.sin(region.max_elevation),
            1e-6,
            "integrates to sin(max_elevation), not 1",
        ),
        _quartic_moment_check(region),
    ]


def _quartic_moment_check(region: SensingRegion) -> CheckResult:
    from scipy import integrate

    e3 = region.radius_ratio**3
    radial = lambda r: 3.0 * e3 * r * r / (region.max_range**3 * (e3 - 1.0))

    # Over u = ln r, radial(r) r^-4 dr is radial(r) r^-3 du, which is smooth
    # across the whole range. epsabs = 0 keeps the tolerance relative: the
    # default absolute one (1.5e-8) exceeds the moment itself at large radii.
    def integrand(u: float) -> float:
        r = math.exp(u)
        return radial(r) / r**3

    moment, _ = integrate.quad(
        integrand,
        math.log(region.inner_range),
        math.log(region.max_range),
        epsabs=0.0,
        epsrel=1e-12,
    )
    return _quantitative(
        "inverse_quartic_range_moment",
        expected_inverse_quartic_range(region),
        moment,
        1e-9 * abs(moment),
        "closed form vs quadrature of the radial marginal",
    )


def _sampler_checks(config: ScenarioConfig) -> list[CheckResult]:
    import numpy as np
    from scipy import stats

    region = config.region()
    inner3 = region.inner_range**3
    outer3 = region.max_range**3
    if not outer3 - inner3 > 0.0:
        # The range probe divides by this difference.
        raise ZeroDivisionError(
            f"sampler_ks_range: outer minus inner range cubed is "
            f"{outer3 - inner3:g} km^3, not positive"
        )
    n = max(min(config.trials, 100_000), 1)
    rng = substream(config.seed, TAG_POSITIONS, 0, salt=101)
    ranges, elevations, azimuths = sample_positions(region, rng, n)
    critical = float(stats.kstwobign.isf(0.01)) / math.sqrt(n)

    probes = {
        "sampler_ks_range": (ranges**3 - inner3) / (outer3 - inner3),
        "sampler_ks_elevation": np.sin(elevations) / math.sin(region.max_elevation),
        "sampler_ks_azimuth": azimuths / math.pi,
    }
    results = []
    for name, unit in probes.items():
        stat = float(stats.kstest(unit, "uniform").statistic)
        ok = stat < critical
        results.append(
            CheckResult(
                name,
                _verdict(ok),
                stat,
                0.0,
                critical,
                f"KS vs uniform after the probability transform, n = {n}",
            )
        )
    return results


def _halfwidth_db(estimate: EmpiricalEstimate) -> float:
    if estimate.mean <= 0.0 or estimate.low <= 0.0:
        return math.inf
    return 10.0 * math.log10(estimate.high / estimate.mean)


def _snr_checks(config: ScenarioConfig) -> list[CheckResult]:
    if config.trials < 1:
        note = "inconclusive: trials = 0"
        return [
            CheckResult("mean_snr_mc_vs_closed_form", "inconclusive", detail=note),
            CheckResult("mean_snr_mode_gap", "inconclusive", detail=note),
        ]
    link, region = config.link(), config.region()
    estimate = mc_mean_snr(link, region, config.plan(), config.workers)
    hw_db = _halfwidth_db(estimate)
    # Tolerance: the 0.1 dB floor or 3 standard errors, whichever is looser;
    # a CI so wide that even a 2x defect could hide is inconclusive.
    se_db = hw_db / confidence_z(config.confidence)
    tol_db = max(0.1, 3.0 * se_db)
    too_wide = not math.isfinite(hw_db) or tol_db > 3.0
    mc_db = linear_to_db(estimate.mean) if estimate.mean > 0.0 else math.nan
    closed_db = linear_to_db(mean_single_uav_snr(link, region, "normalized"))
    unnorm_db = linear_to_db(mean_single_uav_snr(link, region, "unnormalized"))
    gap_expected = 10.0 * math.log10(math.sin(region.max_elevation))
    if too_wide:
        note = f"inconclusive: CI too wide ({hw_db:.3g} dB)"
        return [
            CheckResult(
                "mean_snr_mc_vs_closed_form", "inconclusive",
                mc_db, closed_db, tol_db, note,
            ),
            CheckResult(
                "mean_snr_mode_gap", "inconclusive",
                unnorm_db - mc_db, gap_expected, tol_db, note,
            ),
        ]
    return [
        _quantitative(
            "mean_snr_mc_vs_closed_form", mc_db, closed_db, tol_db,
            f"{config.trials} trials, CI half-width {hw_db:.3g} dB",
        ),
        _quantitative(
            "mean_snr_mode_gap", unnorm_db - mc_db, gap_expected, tol_db,
            "unnormalized closed form minus sampled mean, dB",
        ),
    ]


def _detection_checks(config: ScenarioConfig) -> list[CheckResult]:
    names = ("detection_pd_rate", "detection_pfa_rate")
    if config.trials < 1:
        return [
            CheckResult(name, "inconclusive", detail="inconclusive: trials = 0")
            for name in names
        ]
    # Operating point in the informative region (pd ~ 0.9 at the configured
    # false-alarm rate) rather than a saturated one.
    xi = q_inv(config.pfa)
    snr = (xi - q_inv(0.9)) ** 2 / 2.0
    pd_est, pfa_est = mc_detection_rates(
        snr, config.pfa, config.cpi_symbols, config.plan(), config.workers
    )
    truth = {
        "detection_pd_rate": (pd_est, pd_single(snr, config.pfa)),
        "detection_pfa_rate": (pfa_est, config.pfa),
    }
    results = []
    for name, (estimate, expected) in truth.items():
        se = math.sqrt(expected * (1.0 - expected) / config.trials)
        tol = 3.0 * se
        if tol > 0.05:
            results.append(
                CheckResult(
                    name, "inconclusive", estimate.mean, expected, tol,
                    "inconclusive: CI too wide (3 SE > 0.05)",
                )
            )
        else:
            results.append(
                _quantitative(
                    name, estimate.mean, expected, tol,
                    f"3 binomial SE at {config.trials} trials",
                )
            )
    return results


def _integration_checks(config: ScenarioConfig) -> list[CheckResult]:
    import numpy as np

    counts = (1, 3, 8)
    if config.trials < 1:
        results = [
            CheckResult(
                f"integration_energy_n{n}", "inconclusive",
                detail="inconclusive: trials = 0",
            )
            for n in counts
        ]
        results.append(
            CheckResult(
                "integration_snr_slope", "inconclusive",
                detail="inconclusive: trials = 0",
            )
        )
        return results

    base = config.link()
    amplitude = math.sqrt(path_gain_squared(base, config.radius_km))
    z = confidence_z(config.confidence)
    results = []
    snr_points: list[tuple[int, float]] = []
    slope_ok = True
    for n in counts:
        link = replace(base, cpi_symbols=n)
        est = mc_integration_energy(
            link, amplitude, config.plan(), config.workers, salt=n
        )
        signal = link.gain_amplitude * math.sqrt(
            link.tx_power_mw / link.uavs_per_symbol
        ) * amplitude
        expected = n * n * signal**2 + n * link.noise_power_mw
        tol = 3.0 * est.half_width / z
        rel_hw = est.half_width / expected
        if rel_hw > 0.1:
            results.append(
                CheckResult(
                    f"integration_energy_n{n}", "inconclusive",
                    est.mean, expected, tol,
                    "inconclusive: CI too wide (rel. half-width > 10%)",
                )
            )
            slope_ok = False
        else:
            results.append(
                _quantitative(
                    f"integration_energy_n{n}", est.mean, expected, tol,
                    "signal energy grows as N^2, noise as N",
                )
            )
        empirical_snr = est.mean / (n * link.noise_power_mw) - 1.0
        if empirical_snr > 0.0:
            snr_points.append((n, empirical_snr))

    if slope_ok and len(snr_points) == len(counts):
        logs = np.log([n for n, _ in snr_points])
        vals = np.log([s for _, s in snr_points])
        slope = float(np.polyfit(logs, vals, 1)[0])
        results.append(
            _quantitative(
                "integration_snr_slope", slope, 1.0, 0.05,
                "log-log slope of energy-derived SNR vs symbol count",
            )
        )
    else:
        results.append(
            CheckResult(
                "integration_snr_slope", "inconclusive",
                detail="inconclusive: energy estimates too noisy",
            )
        )
    return results


def _q_approx_check(config: ScenarioConfig) -> list[CheckResult]:
    import numpy as np

    grid = np.linspace(0.0, 4.0, 4001)
    worst = max(abs(q_exp_approx(float(x)) - q(float(x))) for x in grid)
    return [
        _quantitative(
            "q_surrogate_max_abs_error", worst, 0.0, 5e-3,
            "4001-point grid on [0, 4]",
        )
    ]


def _solver_agreement_check(config: ScenarioConfig) -> list[CheckResult]:
    rng = substream(config.seed, _TAG_SCENARIOS, 0)
    mismatches = 0
    worst = 0
    for _ in range(50):
        u = rng.random(8)
        scenario = with_overrides(
            config,
            radius_km=0.5 + 1.5 * u[0],
            radius_ratio=2.0 + 18.0 * u[1],
            max_elevation_rad=0.15 + (math.pi / 2.0 - 0.15) * u[2],
            tx_power_dbm=50.0 + 10.0 * u[3],
            pd_threshold=0.8 + 0.19 * u[4],
            pfa=0.01 + 0.19 * u[5],
            frames=1 + int(10.0 * u[6]),
            snr_mode="normalized" if u[7] < 0.5 else "unnormalized",
            surrogate_mode="exact",
        )
        query = scenario.query()
        fast = capacity_under_pd_bisect(query).max_uavs
        slow = capacity_under_pd_scan(query).max_uavs
        worst = max(worst, abs(fast - slow))
        if fast != slow:
            mismatches += 1
    return [
        _quantitative(
            "pd_capacity_bisect_vs_scan", float(mismatches), 0.0, 0.0,
            f"50 random scenarios, worst gap {worst} UAVs",
        )
    ]


def _surrogate_capacity_check(config: ScenarioConfig) -> list[CheckResult]:
    worst_expanded = 0
    worst_fixed = 0
    for radius in (0.9, 1.05, 1.2):
        for power in (56.0, 58.0):
            for floor in (0.9, 0.95, 0.99):
                for mode in ("normalized", "unnormalized"):
                    scenario = with_overrides(
                        config,
                        radius_km=radius,
                        tx_power_dbm=power,
                        pd_threshold=floor,
                        frames=1,
                        snr_mode=mode,
                    )
                    exact = capacity_under_pd_bisect(
                        replace(scenario.query(), surrogate_mode="exact")
                    ).max_uavs
                    expanded = capacity_under_pd_bisect(
                        replace(scenario.query(), surrogate_mode="expanded")
                    ).max_uavs
                    fixed = capacity_under_pd_bisect(
                        replace(scenario.query(), surrogate_mode="fixed")
                    ).max_uavs
                    worst_expanded = max(worst_expanded, abs(expanded - exact))
                    worst_fixed = max(worst_fixed, abs(fixed - exact))
    return [
        _quantitative(
            "surrogate_capacity_gap", float(worst_expanded), 0.0, 1.0,
            f"reference neighborhood grid; fixed-variant gap {worst_fixed} UAVs "
            "(measured only, no bound)",
        )
    ]


def _trend_checks(config: ScenarioConfig) -> list[CheckResult]:
    import numpy as np

    results = []

    # Capacity never increases with radius, at several power levels.
    worst_jump = 0
    for power in (50.0, 54.0, 58.0):
        previous: tuple[int, int] | None = None
        for radius in np.arange(0.5, 2.01, 0.25):
            scenario = with_overrides(
                config, radius_km=float(radius), tx_power_dbm=power
            )
            query = scenario.query()
            caps = (
                capacity_under_snr(query).max_uavs,
                capacity_under_pd_bisect(query).max_uavs,
            )
            if previous is not None:
                worst_jump = max(
                    worst_jump,
                    caps[0] - previous[0],
                    caps[1] - previous[1],
                )
            previous = caps
    results.append(
        _quantitative(
            "capacity_radius_monotone", float(worst_jump), 0.0, 0.0,
            "largest capacity increase along growing radius; 0 = monotone",
        )
    )

    # SNR-constrained capacity is proportional to the frame count; the
    # PD-constrained one is concave, so only its monotonicity is asserted
    # and its deviation from proportionality is reported.
    frames = list(range(1, 11))
    snr_caps = []
    pd_caps = []
    for f in frames:
        query = config.query(frames=f)
        snr_caps.append(capacity_under_snr(query).max_uavs)
        pd_caps.append(capacity_under_pd_bisect(query).max_uavs)

    def origin_fit_dev(caps: list[int]) -> float:
        xs = np.asarray(frames, dtype=float)
        ys = np.asarray(caps, dtype=float)
        slope = float(xs @ ys / (xs @ xs))
        return float(np.max(np.abs(ys - slope * xs)))

    snr_dev = origin_fit_dev(snr_caps)
    pd_dev = origin_fit_dev(pd_caps)
    results.append(
        _quantitative(
            "snr_capacity_frames_proportional", snr_dev, 0.0, 1.0,
            "max deviation from the through-origin fit, frames 1..10",
        )
    )
    pd_monotone = all(b >= a for a, b in zip(pd_caps, pd_caps[1:]))
    results.append(
        CheckResult(
            "pd_capacity_frames_monotone",
            _verdict(pd_monotone),
            pd_dev,
            None,
            None,
            "monotone non-decreasing asserted; deviation from "
            f"proportionality measured at {pd_dev:.3g} UAVs (concave trend)",
        )
    )

    # Joint PD vs count: flat near 1, then a sharp drop; concave until the
    # curve crosses the detection floor.
    query = config.query()
    mean_one = mean_snr_at(query, 1)
    counts = list(range(1, 61))
    pds = [joint_pd(mean_one / c, c, config.pfa) for c in counts]
    crossing = next(
        (i for i, value in enumerate(pds) if value < config.pd_threshold),
        len(pds),
    )
    second = [
        pds[i + 1] - 2.0 * pds[i] + pds[i - 1]
        for i in range(1, min(crossing, len(pds) - 1))
    ]
    # The curve saturates at exactly 1.0 in float64 while the SNR is huge,
    # so the leading second differences are exact zeros; past saturation
    # they must be strictly negative, and the drop must be sharp.
    concave = all(d <= 1e-15 for d in second) and min(second) < -1e-3
    half = pds[max((crossing + 1) // 2 - 1, 0)]
    results.append(
        CheckResult(
            "joint_pd_slow_then_sharp",
            _verdict(concave and half > 0.99),
            min(second) if second else None,
            None,
            None,
            f"second differences <= 0 up to the crossing at {crossing + 1}; "
            f"joint PD still {half:.4f} at half the crossing count",
        )
    )
    return results


def _beamforming_check(config: ScenarioConfig) -> list[CheckResult]:
    upa = UpaGeometry(24, 16)
    results = []
    for k in (1, 4):
        gain = effective_channel_gain(
            upa, azimuth=0.7, elevation=0.3, path_amplitude=2.5e-10,
            uavs_per_symbol=k,
        )
        expected = 2.5e-10 / math.sqrt(k)
        results.append(
            _quantitative(
                f"beamforming_gain_k{k}",
                abs(gain - expected) / expected,
                0.0,
                1e-12,
                "matched combiner/precoder collapses to amplitude / sqrt(K)",
            )
        )
    return results


# Check groups in report order.
_CHECK_GROUPS = (
    _density_checks,
    _sampler_checks,
    _snr_checks,
    _detection_checks,
    _integration_checks,
    _q_approx_check,
    _solver_agreement_check,
    _surrogate_capacity_check,
    _trend_checks,
    _beamforming_check,
)


def run_validation(config: ScenarioConfig) -> list[CheckResult]:
    """Run every cross-check under one scenario; order is fixed.

    A group that raises (say, a config whose geometry overflows a float)
    becomes one ``fail`` row named after the group, with the exception as
    its detail, and the remaining groups still run.
    """
    results: list[CheckResult] = []
    for group in _CHECK_GROUPS:
        try:
            results.extend(group(config))
        except Exception as exc:
            results.append(
                CheckResult(
                    group.__name__.lstrip("_"), "fail",
                    detail=f"{type(exc).__name__}: {exc}",
                )
            )
    return results


def render_validation_csv(
    config: ScenarioConfig, results: list[CheckResult]
) -> str:
    """Same deterministic CSV shape as sweeps: `#` config header, then rows."""
    out = io.StringIO()
    out.write("# uavcap validation\n")
    for key, value in config.document_items():
        out.write(f"# {key} = {value}\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["check", "status", "measured", "expected", "tolerance", "detail"])
    for result in results:
        writer.writerow(
            [
                result.name,
                result.status,
                "" if result.measured is None else format(result.measured, ".10g"),
                "" if result.expected is None else format(result.expected, ".10g"),
                "" if result.tolerance is None else format(result.tolerance, ".10g"),
                result.detail,
            ]
        )
    return out.getvalue()


def failed_checks(results: list[CheckResult]) -> list[CheckResult]:
    return [r for r in results if r.status == "fail"]
