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

import math
from dataclasses import astuple, dataclass, replace

from .capacity import (
    capacity_under_pd_bisect,
    capacity_under_pd_scan,
    capacity_under_snr,
    mean_snr_at,
)
from .config import ScenarioConfig, render_csv
from .detection import SURROGATE_MODES, joint_pd, pd_single, q, q_exp_approx, q_inv
from .geometry import (
    DENSITY_MODES,
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
    TAG_SCENARIOS,
    confidence_z,
    mc_detection_rates,
    mc_integration_energy,
    mc_mean_snr,
    substream,
)

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


def _sampled(
    name: str, measured: float, expected: float, tolerance: float, detail: str,
    unresolved: str | None = None,
) -> CheckResult:
    """A sampled check: inconclusive, with the reason unresolved, when its
    sampling error cannot resolve the tolerance; otherwise quantitative."""
    if unresolved is not None:
        return CheckResult(name, "inconclusive", measured, expected, tolerance, unresolved)
    return _quantitative(name, measured, expected, tolerance, detail)


def _no_trials(*names: str) -> list[CheckResult]:
    """The rows of a sampled check group that has no trials to draw."""
    return [
        CheckResult(name, "inconclusive", detail="inconclusive: trials = 0")
        for name in names
    ]


def _gauss_legendre(low: float, high: float, panels: int = 1) -> list[tuple[float, float]]:
    """(node, weight) pairs of the 20-point Gauss-Legendre rule, exact up to
    degree 39, on each of ``panels`` equal panels of [low, high]."""
    import numpy as np

    x, w = np.polynomial.legendre.leggauss(20)
    half = (high - low) / panels / 2.0
    rule = []
    for k in range(panels):
        mid = low + (2 * k + 1) * half
        rule.extend(zip((mid + half * x).tolist(), (half * w).tolist()))
    return rule


def _density_checks(config: ScenarioConfig) -> list[CheckResult]:
    region = config.region()
    # The density is r^2 cos(elevation), so a 20 x 20 product rule
    # integrates it to rounding.
    ranges = _gauss_legendre(region.inner_range, region.max_range)
    elevations = _gauss_legendre(0.0, region.max_elevation)

    def mass(mode: str) -> float:
        return math.fsum(
            wr * we * math.pi * position_pdf(region, Position(r, el, math.pi / 2.0), mode)
            for r, wr in ranges
            for el, we in elevations
        )

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
    e3 = region.radius_ratio**3
    radial = lambda r: 3.0 * e3 * r * r / (region.max_range**3 * (e3 - 1.0))

    # Over u = ln r, radial(r) r^-4 dr is radial(r) r^-3 du, a multiple of
    # exp(-u): on unit-width panels the rule integrates it to rounding.
    def integrand(u: float) -> float:
        r = math.exp(u)
        return radial(r) / r**3

    low, high = math.log(region.inner_range), math.log(region.max_range)
    rule = _gauss_legendre(low, high, max(1, math.ceil(high - low)))
    moment = math.fsum(w * integrand(u) for u, w in rule)
    return _quantitative(
        "inverse_quartic_range_moment",
        expected_inverse_quartic_range(region),
        moment,
        1e-9 * abs(moment),
        "closed form vs quadrature of the radial marginal",
    )


# The Kolmogorov distribution's upper (1 %/3) point: the two-sided KS test
# at that level rejects when sqrt(n) D exceeds it. Each of the three
# sampler rows tests at 1 %/3, so a sound sampler fails one of them at
# most 1 % of the time.
_KS_CRITICAL = 1.788425236148623


def _sampler_checks(config: ScenarioConfig) -> list[CheckResult]:
    names = ("sampler_ks_range", "sampler_ks_elevation", "sampler_ks_azimuth")
    if config.trials < 1:
        return _no_trials(*names)
    import numpy as np

    region = config.region()
    inner3 = region.inner_range**3
    outer3 = region.max_range**3
    if not outer3 - inner3 > 0.0:
        # The range probe divides by this difference.
        raise ZeroDivisionError(
            f"sampler_ks_range: outer minus inner range cubed is "
            f"{outer3 - inner3:g} km^3, not positive"
        )
    n = min(config.trials, 100_000)
    rng = substream(config.seed, TAG_POSITIONS, 0, salt=101)
    ranges, elevations, azimuths = sample_positions(region, rng, n)
    critical = _KS_CRITICAL / math.sqrt(n)
    # A KS statistic is at most 1, so a critical value of 1 or more can
    # never be reached: such a test passes whatever the sampler does.
    vacuous = critical >= 1.0
    if vacuous:
        detail = f"inconclusive: KS critical value {critical:.3g} >= 1 at n = {n}"
    else:
        detail = f"KS vs uniform after the probability transform at 1 %/3, n = {n}"

    probes = (
        (ranges**3 - inner3) / (outer3 - inner3),
        np.sin(elevations) / math.sin(region.max_elevation),
        azimuths / math.pi,
    )
    # The two-sided KS statistic against U(0, 1), as scipy defines it.
    up, down = np.arange(1, n + 1) / n, np.arange(0, n) / n
    results = []
    for name, unit in zip(names, probes):
        unit = np.sort(unit)
        stat = float(max(np.max(up - unit), np.max(unit - down)))
        status = "inconclusive" if vacuous else _verdict(stat < critical)
        results.append(CheckResult(name, status, stat, 0.0, critical, detail))
    return results


def _halfwidth_db(estimate: EmpiricalEstimate) -> float:
    if estimate.mean <= 0.0 or estimate.low <= 0.0:
        return math.inf
    return 10.0 * math.log10(estimate.high / estimate.mean)


def _snr_checks(config: ScenarioConfig) -> list[CheckResult]:
    if config.trials < 1:
        return _no_trials("mean_snr_mc_vs_closed_form", "mean_snr_mode_gap")
    link, region = config.link(), config.region()
    estimate = mc_mean_snr(link, region, config.plan())
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
    note = f"inconclusive: CI too wide ({hw_db:.3g} dB)" if too_wide else None
    return [
        _sampled(
            "mean_snr_mc_vs_closed_form", mc_db, closed_db, tol_db,
            f"{config.trials} trials, CI half-width {hw_db:.3g} dB", note,
        ),
        _sampled(
            "mean_snr_mode_gap", unnorm_db - mc_db, gap_expected, tol_db,
            "unnormalized closed form minus sampled mean, dB", note,
        ),
    ]


def _detection_checks(config: ScenarioConfig) -> list[CheckResult]:
    names = ("detection_pd_rate", "detection_pfa_rate")
    if config.trials < 1:
        return _no_trials(*names)
    # Operating point in the informative region (pd ~ 0.9 at the configured
    # false-alarm rate) rather than a saturated one.
    xi = q_inv(config.pfa)
    snr = (xi - q_inv(0.9)) ** 2 / 2.0
    pd_est, pfa_est = mc_detection_rates(
        snr, config.pfa, config.cpi_symbols, config.plan()
    )
    truth = {
        "detection_pd_rate": (pd_est, pd_single(snr, config.pfa)),
        "detection_pfa_rate": (pfa_est, config.pfa),
    }
    results = []
    for name, (estimate, expected) in truth.items():
        tol = 3.0 * math.sqrt(expected * (1.0 - expected) / config.trials)
        unresolved = "inconclusive: CI too wide (3 SE > 0.05)" if tol > 0.05 else None
        results.append(
            _sampled(
                name, estimate.mean, expected, tol,
                f"3 binomial SE at {config.trials} trials", unresolved,
            )
        )
    return results


def _integration_checks(config: ScenarioConfig) -> list[CheckResult]:
    import numpy as np

    counts = (1, 3, 8)
    if config.trials < 1:
        return _no_trials(
            *(f"integration_energy_n{n}" for n in counts), "integration_snr_slope"
        )

    base = config.link()
    amplitude = math.sqrt(path_gain_squared(base, config.radius_km))
    z = confidence_z(config.confidence)
    results = []
    # (N, energy-derived SNR, its standard error) per symbol count.
    snr_points: list[tuple[int, float, float]] = []
    for n in counts:
        link = replace(base, cpi_symbols=n)
        est = mc_integration_energy(link, amplitude, config.plan(), salt=n)
        signal = link.gain_amplitude * math.sqrt(
            link.tx_power_mw / link.uavs_per_symbol
        ) * amplitude
        expected = n * n * signal**2 + n * link.noise_power_mw
        tol = 3.0 * est.half_width / z
        too_wide = est.half_width / expected > 0.1
        results.append(
            _sampled(
                f"integration_energy_n{n}", est.mean, expected, tol,
                "signal energy grows as N^2, noise as N",
                "inconclusive: CI too wide (rel. half-width > 10%)" if too_wide else None,
            )
        )
        noise = n * link.noise_power_mw
        empirical_snr = est.mean / noise - 1.0
        if empirical_snr > 0.0:
            snr_points.append((n, empirical_snr, est.half_width / z / noise))

    resolved = all(r.status != "inconclusive" for r in results)
    if resolved and len(snr_points) == len(counts):
        logs = np.log([n for n, _, _ in snr_points])
        vals = np.log([snr for _, snr, _ in snr_points])
        # The least-squares slope is sum(w_i ln SNR_i) with weights
        # w_i = (x_i - mean x) / sum((x_j - mean x)^2), x = ln N, and each
        # ln SNR_i has standard error SE(SNR_i) / SNR_i. At a faint echo the
        # SNR is a small difference of two near-equal energies, so it is
        # the slope's own error, not the energies', that decides resolution.
        centered = logs - logs.mean()
        weights = centered / (centered @ centered)
        slope = float(weights @ vals)
        rel_se = np.array([se / snr for _, snr, se in snr_points])
        slope_se = float(np.sqrt(np.sum((weights * rel_se) ** 2)))
        unresolved = (
            f"inconclusive: slope too uncertain (3 SE = {3.0 * slope_se:.2g} > 0.05)"
            if 3.0 * slope_se > 0.05
            else None
        )
        results.append(
            _sampled(
                "integration_snr_slope", slope, 1.0, 0.05,
                "log-log slope of energy-derived SNR vs symbol count", unresolved,
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
    rng = substream(config.seed, TAG_SCENARIOS, 0)
    mismatches = 0
    worst = 0
    for _ in range(50):
        u = rng.random(8)
        scenario = replace(
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
    # The grid is a neighborhood of the reference point, so radius_ratio is
    # pinned to its default (the class attribute) like the other swept keys.
    # A larger ratio shrinks the inner radius and lifts the capacity into the
    # thousands, where the expanded surrogate sits at the edge of its window
    # and an absolute 1-UAV bound no longer measures its quality.
    ratio = ScenarioConfig.radius_ratio
    worst_expanded = 0
    worst_fixed = 0
    for radius in (0.9, 1.05, 1.2):
        for power in (56.0, 58.0):
            for floor in (0.9, 0.95, 0.99):
                for mode in DENSITY_MODES:
                    scenario = replace(
                        config,
                        radius_km=radius,
                        radius_ratio=ratio,
                        tx_power_dbm=power,
                        pd_threshold=floor,
                        frames=1,
                        snr_mode=mode,
                    )
                    query = scenario.query()
                    exact, expanded, fixed = (
                        capacity_under_pd_bisect(replace(query, surrogate_mode=m)).max_uavs
                        for m in SURROGATE_MODES
                    )
                    worst_expanded = max(worst_expanded, abs(expanded - exact))
                    worst_fixed = max(worst_fixed, abs(fixed - exact))
    return [
        _quantitative(
            "surrogate_capacity_gap", float(worst_expanded), 0.0, 1.0,
            f"reference neighborhood grid; fixed-variant gap {worst_fixed} UAVs "
            "(measured only, no bound)",
        )
    ]


def _capacity_radius_monotone(config: ScenarioConfig) -> list[CheckResult]:
    import numpy as np

    # Capacity never increases with radius, at several power levels.
    worst_jump = 0
    for power in (50.0, 54.0, 58.0):
        previous: tuple[int, int] | None = None
        for radius in np.arange(0.5, 2.01, 0.25):
            query = replace(
                config, radius_km=float(radius), tx_power_dbm=power
            ).query()
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
    return [
        _quantitative(
            "capacity_radius_monotone", float(worst_jump), 0.0, 0.0,
            "largest capacity increase along growing radius; 0 = monotone",
        )
    ]


# SNR-constrained capacity is proportional to the frame count; the
# PD-constrained one is concave, so only its monotonicity is asserted and
# its deviation from proportionality is reported.
_TREND_FRAMES = range(1, 11)


def _origin_fit_dev(caps: list[int]) -> float:
    """Largest deviation of capacity from its through-origin fit in frames."""
    import numpy as np

    xs = np.asarray(_TREND_FRAMES, dtype=float)
    ys = np.asarray(caps, dtype=float)
    slope = float(xs @ ys / (xs @ xs))
    return float(np.max(np.abs(ys - slope * xs)))


def _snr_capacity_frames_proportional(config: ScenarioConfig) -> list[CheckResult]:
    caps = [
        capacity_under_snr(replace(config, frames=f).query()).max_uavs
        for f in _TREND_FRAMES
    ]
    # One UAV of slack, plus two float spacings: past 2**53 UAVs adjacent
    # floats are more than one apart, and the fit is computed in floats.
    return [
        _quantitative(
            "snr_capacity_frames_proportional", _origin_fit_dev(caps), 0.0,
            1.0 + 2.0 * math.ulp(max(caps)),
            "max deviation from the through-origin fit, frames 1..10",
        )
    ]


def _pd_capacity_frames_monotone(config: ScenarioConfig) -> list[CheckResult]:
    caps = [
        capacity_under_pd_bisect(replace(config, frames=f).query()).max_uavs
        for f in _TREND_FRAMES
    ]
    dev = _origin_fit_dev(caps)
    return [
        CheckResult(
            "pd_capacity_frames_monotone",
            _verdict(all(b >= a for a, b in zip(caps, caps[1:]))),
            dev,
            None,
            None,
            "monotone non-decreasing asserted; deviation from "
            f"proportionality measured at {dev:.3g} UAVs (concave trend)",
        )
    ]


def _joint_pd_slow_then_sharp(config: ScenarioConfig) -> list[CheckResult]:
    # Joint PD vs count: flat near 1, then a sharp drop up to the first
    # count below the floor (the crossing, from the exact solver). It is
    # read at multiples of step up to there: at most 60 counts.
    name = "joint_pd_slow_then_sharp"
    query = replace(config.query(), surrogate_mode="exact")
    crossing = capacity_under_pd_bisect(query).max_uavs + 1
    step = -(-crossing // 60)
    mean_one = mean_snr_at(query, 1)
    pds = [
        joint_pd(mean_one / c, c, config.pfa)
        for c in range(step, crossing + step, step)
    ]
    if len(pds) < 3:
        # Fewer than three counts up to the crossing: no second difference.
        return [
            CheckResult(
                name, "pass",
                detail=f"joint PD is below the floor from count {crossing} on: "
                "too few counts before the crossing for a second difference "
                "(vacuous pass)",
            )
        ]
    bend = [pds[i + 1] - 2.0 * pds[i] + pds[i - 1] for i in range(1, len(pds) - 1)]
    # The shape is -ln PD = L m(L), convex in the count L; PD = exp(-L m(L))
    # itself bends back below 1/e, so under such a floor PD's second
    # differences turn positive on a sound curve. Where PD saturates at 1.0
    # in float64 the log's second differences are exact zeros, elsewhere at
    # most rounding below 0. The drop is sharp if PD bends harder than the
    # parabola from 1 at count 0 to the floor at the crossing, a bound free
    # of the curve's scale. One second difference (crossing 3) is too few
    # to tell a sharp drop: sound curves bend up there, so only convexity
    # and the half-count bound are read.
    logs = [-math.log(p) for p in pds]
    convex = all(
        logs[i + 1] - 2.0 * logs[i] + logs[i - 1] >= -1e-15 for i in range(1, len(logs) - 1)
    )
    parabola = -2.0 * (1.0 - config.pd_threshold) * (step / crossing) ** 2
    # Slow first: -ln PD at half the crossing is at most a fifth of -ln of
    # the floor, a bound free of the floor's scale (at 0.95 it reads
    # PD >= 0.9898). Convexity alone guarantees only a half.
    half = pds[len(pds) // 2 - 1]
    slow = math.log(half) >= 0.2 * math.log(config.pd_threshold)
    single = len(bend) == 1
    sharp = single or min(bend) < parabola
    grid = f" every {step} counts" if step > 1 else ""
    shape = "second differences <= 0" if max(bend) <= 1e-15 else (
        "-ln(joint PD) second differences >= 0")
    unbounded = "; one second difference, so no sharpness bound" if single else ""
    return [
        CheckResult(
            name, _verdict(convex and sharp and slow),
            min(bend), None, None,
            f"{shape}{grid} up to the crossing at {crossing}; "
            f"joint PD still {half:.4f} at half the crossing count{unbounded}",
        )
    ]


def _beamforming_check(config: ScenarioConfig) -> list[CheckResult]:
    # A matched pair gives amplitude / sqrt(K) for any array, so these rows
    # stay only because perfbench/golden.json lists them; ROADMAP item 6
    # deletes them together with that list. a is the unit-norm response of
    # a 24 x 16 half-wavelength planar array, w = a and f = a / sqrt(K).
    import numpy as np

    azimuth, elevation, beta = 0.7, 0.3, 2.5e-10
    phase = 2.0j * math.pi * 0.5
    elev = np.exp(phase * (math.sin(azimuth) * math.sin(elevation)) * np.arange(16))
    azim = np.exp(phase * (math.sin(azimuth) * math.cos(elevation)) * np.arange(24))
    a = np.kron(elev / math.sqrt(16), azim / math.sqrt(24))
    results = []
    for k in (1, 4):
        gain = complex(beta * (a.conj() @ a) * (a.conj() @ (a / math.sqrt(k))))
        expected = beta / math.sqrt(k)
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
    _capacity_radius_monotone,
    _snr_capacity_frames_proportional,
    _pd_capacity_frames_monotone,
    _joint_pd_slow_then_sharp,
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
    return render_csv(
        "uavcap validation",
        config.document_items(),
        ("check", "status", "measured", "expected", "tolerance", "detail"),
        (astuple(result) for result in results),
    )


def failed_checks(results: list[CheckResult]) -> list[CheckResult]:
    return [r for r in results if r.status == "fail"]
