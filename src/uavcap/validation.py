"""Cross-validation of every closed form against an independent route.

Each check pairs an analytic quantity with an oracle that does not share
its derivation: quadrature for densities and moments, Kolmogorov-Smirnov
tests for the sampler, Monte Carlo for SNR/detection/integration, linear
scan for the seeded-search capacity, and exact Q for the surrogate. The
capacity trend rows read the capacity-vs-radius and capacity-vs-frames
sweeps, the rows the CLI prints, at their default grids.

Each check group is registered by ``@_check``, which names its rows once,
in report order. A group returns one ``_Row`` per name, and ``_result``
is the one verdict rule: an ``unresolved`` reason gives ``inconclusive``,
a set ``ok`` gives pass/fail for a qualitative check, and otherwise the
row passes when ``|measured - expected| <= tolerance``. A sampled group
at zero trials, or a group that raises, still reports every named row.

Statistical honesty rule: a standard-error row reports its ``se`` and its
``bound``, and is ``inconclusive`` when 3 SE is not finite or exceeds the
bound, instead of pass or fail. Otherwise it tests at 3 SE plus 4 ulps of
its expectation. Deterministic checks are never inconclusive.
"""

from __future__ import annotations

import functools
import math
from dataclasses import astuple, dataclass, replace
from typing import Callable, NamedTuple

from .capacity import (
    _log_pd_floor,
    capacity_under_pd_bisect,
    capacity_under_pd_scan,
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
    mc_detection_rates,
    mc_integration_energy,
    mc_mean_snr,
    substream,
)
from .sweeps import run_sweep

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


class _Row(NamedTuple):
    """What a check group reports for one of its named rows. ``ok`` is the
    verdict of a qualitative check; ``unresolved`` is the reason a check
    cannot resolve its tolerance. A standard-error row gives its ``se`` and
    its ``bound``, the largest 3 SE at which it can still see a defect."""

    measured: float | None = None
    expected: float | None = None
    tolerance: float | None = None
    detail: str = ""
    ok: bool | None = None
    unresolved: str | None = None
    se: float | None = None
    bound: float | None = None

    @property
    def inconclusive(self) -> str | None:
        """Why the row cannot resolve a defect, or None if it can."""
        if self.unresolved is None and self.se is not None:
            spread = 3.0 * self.se
            if not (math.isfinite(spread) and spread <= self.bound):
                return f"inconclusive: 3 SE = {spread:.2g} > {self.bound:.2g}"
        return self.unresolved


def _result(name: str, row: _Row) -> CheckResult:
    """The verdict rule for every row. A standard-error row that fixes no
    tolerance tests at 3 SE plus 4 ulps of its expectation, for rounding."""
    tolerance = row.tolerance
    if tolerance is None and row.se is not None:
        tolerance = 3.0 * row.se + 4.0 * math.ulp(row.expected)
    reason = row.inconclusive
    if reason is not None:
        status, detail = "inconclusive", reason
    else:
        ok = row.ok if row.ok is not None else (
            abs(row.measured - row.expected) <= tolerance)
        status, detail = ("pass" if ok else "fail"), row.detail
    return CheckResult(name, status, row.measured, row.expected, tolerance, detail)


_Group = Callable[[ScenarioConfig], list[CheckResult]]

# Check groups in report order, filled by @_check in source order.
_CHECK_GROUPS: list[_Group] = []


def _check(*names: str, sampled: bool = False) -> Callable[[Callable], _Group]:
    """Register a group that returns one ``_Row`` per name.

    The registered group returns named ``CheckResult``s: ``inconclusive``
    rows without running when it is ``sampled`` and there are no trials,
    and a ``fail`` row per name, with the exception as detail, when it
    raises. So the row names never depend on the input.
    """

    def register(group: Callable[[ScenarioConfig], list[_Row]]) -> _Group:
        @functools.wraps(group)
        def run(config: ScenarioConfig) -> list[CheckResult]:
            if sampled and config.trials < 1:
                rows = [_Row(unresolved="inconclusive: trials = 0")] * len(names)
            else:
                try:
                    rows = group(config)
                except Exception as exc:
                    rows = [_Row(detail=f"{type(exc).__name__}: {exc}", ok=False)] * len(names)
            return [_result(name, row) for name, row in zip(names, rows, strict=True)]

        run.names = names
        _CHECK_GROUPS.append(run)
        return run

    return register


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


@_check(
    "density_mass_normalized", "density_mass_unnormalized", "inverse_quartic_range_moment"
)
def _density_checks(config: ScenarioConfig) -> list[_Row]:
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
        _Row(mass("normalized"), 1.0, 1e-6, "quadrature over the support"),
        _Row(
            mass("unnormalized"),
            math.sin(region.max_elevation),
            1e-6,
            "integrates to sin(max_elevation), not 1",
        ),
        _quartic_moment_row(region),
    ]


def _quartic_moment_row(region: SensingRegion) -> _Row:
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
    return _Row(
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

# The sampled ranges can take only the k floats in [R/eps, R], so near
# radius_ratio 1 their KS statistic sits about 1/k from 0 whatever the
# sampler. The range row is inconclusive while _KS_LATTICE / k reaches the
# critical value. At 15 the smallest k still tested at 1e5 trials is 2653,
# where the row fails 3 of seeds 1-1000 and 23 of seeds 1-5000, within the
# 1 %/3 level's one-sided 1 % binomial bounds (8 and 27).
_KS_LATTICE = 15.0


@_check("sampler_ks_range", "sampler_ks_elevation", "sampler_ks_azimuth", sampled=True)
def _sampler_checks(config: ScenarioConfig) -> list[_Row]:
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
    vacuous = (
        f"inconclusive: KS critical value {critical:.3g} >= 1 at n = {n}"
        if critical >= 1.0 else None
    )
    detail = f"KS vs uniform after the probability transform at 1 %/3, n = {n}"
    # The positive floats in [inner, outer] in order, as integers.
    low_bits, high_bits = np.array([region.inner_range, region.max_range]).view(np.int64)
    lattice = int(high_bits - low_bits) + 1
    coarse = (
        f"inconclusive: the sampled ranges take at most {lattice} floats, "
        f"too few for the KS critical value {critical:.3g} at n = {n}"
        if _KS_LATTICE / lattice >= critical else None
    )

    probes = (
        (ranges**3 - inner3) / (outer3 - inner3),
        np.sin(elevations) / math.sin(region.max_elevation),
        azimuths / math.pi,
    )
    # The two-sided KS statistic against U(0, 1), as scipy defines it.
    up, down = np.arange(1, n + 1) / n, np.arange(0, n) / n
    rows = []
    for unit, unresolved in zip(probes, (vacuous or coarse, vacuous, vacuous)):
        unit = np.sort(unit)
        stat = float(max(np.max(up - unit), np.max(unit - down)))
        rows.append(_Row(stat, 0.0, critical, detail, stat < critical, unresolved))
    return rows


def _halfwidth_db(estimate: EmpiricalEstimate) -> float:
    if estimate.mean <= 0.0 or estimate.low <= 0.0:
        return math.inf
    return 10.0 * math.log10(estimate.high / estimate.mean)


@_check("mean_snr_mc_vs_closed_form", "mean_snr_mode_gap", sampled=True)
def _snr_checks(config: ScenarioConfig) -> list[_Row]:
    link, region = config.link(), config.region()
    estimate = mc_mean_snr(link, region, config.plan())
    hw_db = _halfwidth_db(estimate)
    # One SE in dB: the CI's upper half-width in dB over the SEs it spans.
    # The bound: with 3 SE past 3 dB even a 2x defect could hide.
    se_db = hw_db * estimate.se / estimate.half_width if 0.0 < hw_db < math.inf else hw_db
    mc_db = linear_to_db(estimate.mean) if estimate.mean > 0.0 else math.nan
    closed_db = linear_to_db(mean_single_uav_snr(link, region, "normalized"))
    unnorm_db = linear_to_db(mean_single_uav_snr(link, region, "unnormalized"))
    gap_expected = 10.0 * math.log10(math.sin(region.max_elevation))
    return [
        _Row(
            mc_db, closed_db, detail=f"{config.trials} trials, CI half-width {hw_db:.3g} dB",
            se=se_db, bound=3.0,
        ),
        _Row(
            unnorm_db - mc_db, gap_expected,
            detail="unnormalized closed form minus sampled mean, dB", se=se_db, bound=3.0,
        ),
    ]


@_check("detection_pd_rate", "detection_pfa_rate", sampled=True)
def _detection_checks(config: ScenarioConfig) -> list[_Row]:
    # Operating point in the informative region (pd ~ 0.9 at the configured
    # false-alarm rate) rather than a saturated one.
    xi = q_inv(config.pfa)
    snr = (xi - q_inv(0.9)) ** 2 / 2.0
    pd_est, pfa_est = mc_detection_rates(
        snr, config.pfa, config.cpi_symbols, config.plan()
    )
    return [
        _Row(
            estimate.mean, expected, detail=f"3 binomial SE at {config.trials} trials",
            se=math.sqrt(expected * (1.0 - expected) / config.trials), bound=0.05,
        )
        for estimate, expected in ((pd_est, pd_single(snr, config.pfa)), (pfa_est, config.pfa))
    ]


# Symbol counts of the integration energy rows.
_ENERGY_COUNTS = (1, 3, 8)


@_check(
    *(f"integration_energy_n{n}" for n in _ENERGY_COUNTS),
    "integration_snr_slope",
    sampled=True,
)
def _integration_checks(config: ScenarioConfig) -> list[_Row]:
    import numpy as np

    base = config.link()
    amplitude = math.sqrt(path_gain_squared(base, config.radius_km))
    plan = config.plan()
    rows = []
    # (N, energy-derived SNR, its standard error) per symbol count.
    snr_points: list[tuple[int, float, float]] = []
    for n in _ENERGY_COUNTS:
        link = replace(base, cpi_symbols=n)
        est = mc_integration_energy(link, amplitude, plan, salt=n)
        signal = link.gain_amplitude * math.sqrt(
            link.tx_power_mw / link.uavs_per_symbol
        ) * amplitude
        expected = n * n * signal**2 + n * link.noise_power_mw
        # The kernel's (N A)^2 and N^2 A^2 here differ by up to 2 ulps, and
        # each side ends in one more add: the rule's 4-ulp allowance.
        detail = "signal energy grows as N^2, noise as N"
        rows.append(_Row(est.mean, expected, None, detail, se=est.se, bound=0.1 * expected))
        noise = n * link.noise_power_mw
        empirical_snr = est.mean / noise - 1.0
        if empirical_snr > 0.0:
            snr_points.append((n, empirical_snr, est.se / noise))

    if all(row.inconclusive is None for row in rows) and len(snr_points) == len(_ENERGY_COUNTS):
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
        detail = "log-log slope of energy-derived SNR vs symbol count"
        rows.append(_Row(slope, 1.0, 0.05, detail, se=slope_se, bound=0.05))
    else:
        rows.append(_Row(unresolved="inconclusive: energy estimates too noisy"))
    return rows


@_check("q_surrogate_max_abs_error")
def _q_approx_check(config: ScenarioConfig) -> list[_Row]:
    import numpy as np

    grid = np.linspace(0.0, 4.0, 4001)
    worst = max(abs(q_exp_approx(float(x)) - q(float(x))) for x in grid)
    return [_Row(worst, 0.0, 5e-3, "4001-point grid on [0, 4]")]


@_check("pd_capacity_bisect_vs_scan")
def _solver_agreement_check(config: ScenarioConfig) -> list[_Row]:
    # The scenarios are drawn about the reference point: every key not drawn
    # keeps its default, whatever the caller's config says, so the largest
    # capacity (15,314 UAVs at the domain's corner) stays below the scan's cap.
    rng = substream(config.seed, TAG_SCENARIOS, 0)
    mismatches = 0
    worst = 0
    for _ in range(50):
        u = rng.random(8).tolist()
        query = ScenarioConfig(
            radius_km=0.5 + 1.5 * u[0],
            radius_ratio=2.0 + 18.0 * u[1],
            max_elevation_rad=0.15 + (math.pi / 2.0 - 0.15) * u[2],
            tx_power_dbm=50.0 + 10.0 * u[3],
            pd_threshold=0.8 + 0.19 * u[4],
            pfa=0.01 + 0.19 * u[5],
            frames=1 + int(10.0 * u[6]),
            snr_mode="normalized" if u[7] < 0.5 else "unnormalized",
        ).query()
        gap = abs(
            capacity_under_pd_bisect(query).max_uavs - capacity_under_pd_scan(query).max_uavs
        )
        worst = max(worst, gap)
        mismatches += gap > 0
    return [_Row(float(mismatches), 0.0, 0.0, f"50 random scenarios, worst gap {worst} UAVs")]


@_check("surrogate_capacity_gap")
def _surrogate_capacity_check(config: ScenarioConfig) -> list[_Row]:
    # The grid is a neighborhood of the reference point: every key it does
    # not sweep keeps its default, whatever the caller's config says.
    worst_expanded = 0
    worst_fixed = 0
    for radius in (0.9, 1.05, 1.2):
        for power in (56.0, 58.0):
            for floor in (0.9, 0.95, 0.99):
                for mode in DENSITY_MODES:
                    scenario = ScenarioConfig(
                        radius_km=radius,
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
        _Row(
            float(worst_expanded), 0.0, 1.0,
            f"reference neighborhood grid; fixed-variant gap {worst_fixed} UAVs "
            "(measured only, no bound)",
        )
    ]


def _sweep_columns(kind: str, config: ScenarioConfig, *columns: str) -> list[list]:
    """The named columns of the sweep `kind` on its default grid, as the
    CLI prints it. Raises ValueError with the first error row's text."""
    rows = run_sweep(
        kind, replace(config, sweep_start=None, sweep_stop=None, sweep_step=None)
    )
    for row in rows:
        if row["status"] != "ok":
            raise ValueError(f"{kind}: {row['status']}")
    return [[row[column] for row in rows] for column in columns]


@_check("capacity_radius_monotone")
def _capacity_radius_monotone(config: ScenarioConfig) -> list[_Row]:
    # Capacity never increases with radius, at several power levels.
    worst_jump = 0
    for power in (50.0, 54.0, 58.0):
        for caps in _sweep_columns(
            "capacity-vs-radius", replace(config, tx_power_dbm=power),
            "snr_capacity", "pd_capacity",
        ):
            worst_jump = max(worst_jump, *(b - a for a, b in zip(caps, caps[1:])))
    return [
        _Row(
            float(worst_jump), 0.0, 0.0,
            "largest capacity increase along growing radius; 0 = monotone",
        )
    ]


# SNR-constrained capacity is proportional to the frame count; the
# PD-constrained one is concave, so only its monotonicity is asserted and
# its deviation from proportionality is reported.
def _origin_fit_dev(frames: list[int], caps: list[int]) -> float:
    """Largest deviation of capacity from its through-origin fit in frames."""
    import numpy as np

    xs = np.asarray(frames, dtype=float)
    ys = np.asarray(caps, dtype=float)
    slope = float(xs @ ys / (xs @ xs))
    return float(np.max(np.abs(ys - slope * xs)))


@_check("snr_capacity_frames_proportional", "pd_capacity_frames_monotone")
def _capacity_frames_checks(config: ScenarioConfig) -> list[_Row]:
    frames, snr_caps, pd_caps = _sweep_columns(
        "capacity-vs-frames", config, "frames", "snr_capacity", "pd_capacity"
    )
    pd_dev = _origin_fit_dev(frames, pd_caps)
    # One UAV of slack, plus two float spacings: past 2**53 UAVs adjacent
    # floats are more than one apart, and the fit is computed in floats.
    return [
        _Row(
            _origin_fit_dev(frames, snr_caps), 0.0,
            1.0 + 2.0 * math.ulp(max(snr_caps)),
            "max deviation from the through-origin fit, "
            f"frames {frames[0]}..{frames[-1]}",
        ),
        _Row(
            pd_dev,
            detail="monotone non-decreasing asserted; deviation from "
            f"proportionality measured at {pd_dev:.3g} UAVs (concave trend)",
            ok=all(b >= a for a, b in zip(pd_caps, pd_caps[1:])),
        ),
    ]


@_check("joint_pd_slow_then_sharp")
def _joint_pd_slow_then_sharp(config: ScenarioConfig) -> list[_Row]:
    # -ln joint PD is L m(L), with m = -ln PD of one target rising in L. It
    # is 0 at count 0 and convex, so the joint PD stays above the chord
    # PD(crossing)^(L/crossing), then falls at least geometrically. It is
    # read at count 0 and at multiples of step up to the first count below
    # the floor (the crossing, from the exact solver): at most 60 counts. A
    # PD rounded to a double moves its -ln by up to ulp(1), so a second
    # difference may dip 4 ulps below 0.
    query = replace(config.query(), surrogate_mode="exact")
    capacity = capacity_under_pd_bisect(query).max_uavs
    crossing = capacity + 1
    step = -(-crossing // 60)
    mean_one = mean_snr_at(query, 1)

    def pd(count: int) -> float:
        return joint_pd(mean_one / count, count, config.pfa)

    # PD at or past the crossing can underflow to 0.
    logs = [0.0] + [
        -math.log(p) if p > 0.0 else math.inf
        for p in map(pd, range(step, crossing + step, step))
    ]
    bend = [logs[i + 1] - 2.0 * logs[i] + logs[i - 1] for i in range(1, len(logs) - 1)]
    # The joint PD meets the solvers' floor at the capacity and misses it at
    # the crossing, compared as doubles: exp is monotone, so a tie with the
    # rounded floor passes both ways. At capacities of 1e30 UAVs and more
    # both PDs can round to the floor's double. A crossing at 1 reads the
    # miss alone.
    floor = math.exp(_log_pd_floor(query.spec))
    edge = (capacity < 1 or pd(capacity) >= floor) and pd(crossing) <= floor
    grid = f" every {step} counts" if step > 1 else ""
    return [
        _Row(
            min(bend, default=None),
            detail=f"-ln(joint PD) second differences >= -4 ulp(1){grid} from count 0 "
            f"up to the crossing at {crossing}; joint PD meets the floor below the "
            "crossing and misses it there",
            ok=edge and all(b >= -4.0 * math.ulp(1.0) for b in bend),
        )
    ]


@_check("beamforming_gain_k1", "beamforming_gain_k4")
def _beamforming_check(config: ScenarioConfig) -> list[_Row]:
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
    rows = []
    for k in (1, 4):
        gain = complex(beta * (a.conj() @ a) * (a.conj() @ (a / math.sqrt(k))))
        expected = beta / math.sqrt(k)
        rows.append(
            _Row(
                abs(gain - expected) / expected,
                0.0,
                1e-12,
                "matched combiner/precoder collapses to amplitude / sqrt(K)",
            )
        )
    return rows


def run_validation(config: ScenarioConfig) -> list[CheckResult]:
    """Run every registered check group under one scenario, in report order.

    Every input gets the same rows: a group that raises (say, a config
    whose geometry overflows a float) fails each of its named rows, with
    the exception as detail, and the remaining groups still run.
    """
    return [result for group in _CHECK_GROUPS for result in group(config)]


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
