"""Deterministic Monte Carlo oracles for the closed-form link/detector math.

Reproducibility contract: a run is fully determined by (master_seed, tag,
salt, trial count). Each estimator call draws from one generator,
substream(master_seed, tag, 0, salt): SFC64 seeded by
SeedSequence(master_seed, spawn_key=(tag, salt, 0)). Trials are processed
in fixed chunks of _CHUNK, drawn from that one stream in chunk order, and
the per-chunk partial sums are combined with math.fsum in chunk order. So
raising the trial count only extends the stream: the first k full chunks
of a longer run are the chunks of a k-chunk run. A kernel takes up to
_BLOCK full chunks at once, one chunk per row of an array filled by one
generator call, and reduces each row on its own; the ragged last chunk is
a block of one row. The draws and each chunk's partial sums are the same
as one chunk at a time. The detection rates are integer counts, which sum
exactly in any grouping, so they are counted per block instead.

The estimators' `workers` parameter is ignored. It stays only because the
benchmark (perfbench/workloads.py and perfbench/layers.py) passes it
positionally, and goes once the benchmark stops passing it.

Each kernel draws only the samples its statistic reads: mean SNR one
uniform per trial (a log-uniform range, importance-weighted), detection one
normal per trial that both hypotheses share (the LLR is normal with the same
law for any number of integrated symbols; H0 and H1 compare that one draw
against two thresholds, as common random numbers), and the integration
energy one real and one imaginary normal per trial (the coherent sum of N
independent CN(0, sigma^2) noise symbols is exactly CN(0, N sigma^2)).

Estimates carry two-sided half-widths at the one level
TrialPlan.confidence, CONFIDENCE_Z standard errors `se` wide (normal
approximation; binomial standard error for rates).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, ClassVar, Sequence

from .detection import lrt_threshold, q_inv
from .geometry import SensingRegion
from .link import RadarLinkParams, per_uav_snr

# numpy is imported only where arrays are built, so that the closed-form
# commands never load it.
if TYPE_CHECKING:
    import numpy as np

_CHUNK = 4096
_BLOCK = 8  # full chunks per generator call

# Tags keep the substreams of unrelated estimators disjoint under one seed.
TAG_POSITIONS = 1
TAG_DETECTION = 2
TAG_ENERGY = 3
TAG_SCENARIOS = 4  # the random scenarios of validate's solver agreement check


@dataclass(frozen=True)
class TrialPlan:
    """Trial count and master seed for one estimator run, at the one
    confidence level every estimate's half-width is drawn at."""

    confidence: ClassVar[float] = 0.99

    trials: int
    master_seed: int

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be >= 0, got {self.master_seed}")


@dataclass(frozen=True)
class EmpiricalEstimate:
    """Point estimate with a symmetric confidence half-width."""

    mean: float
    half_width: float
    trials: int

    @property
    def low(self) -> float:
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        return self.mean + self.half_width

    @property
    def se(self) -> float:
        return self.half_width / CONFIDENCE_Z


# The level's two-sided normal quantile: P(|N(0,1)| <= z) = confidence.
CONFIDENCE_Z = q_inv((1.0 - TrialPlan.confidence) / 2.0)


def substream(
    master_seed: int, tag: int, index: int, salt: int = 0
) -> np.random.Generator:
    """Generator(SFC64(SeedSequence(master_seed, spawn_key=(tag, salt, index)))).

    tag names the operation and salt separates repeated uses of one
    estimator under the same seed (e.g. one sweep row per salt); index is
    a further spawn-key label. The estimators draw every chunk of a call
    from index 0, in order.
    """
    import numpy as np

    seq = np.random.SeedSequence(master_seed, spawn_key=(tag, salt, index))
    return np.random.Generator(np.random.SFC64(seq))


def _blocks(trials: int) -> list[tuple[int, int]]:
    """(rows, chunk size) of each block: up to _BLOCK full chunks, then the
    ragged rest as a block of one row."""
    full, rest = divmod(trials, _CHUNK)
    blocks = [(min(_BLOCK, full - start), _CHUNK) for start in range(0, full, _BLOCK)]
    return blocks + ([(1, rest)] if rest else [])


def _run_chunks(
    plan: TrialPlan,
    tag: int,
    kernel: Callable[[np.random.Generator, int, int], tuple[np.ndarray, ...]],
    salt: int,
) -> list[tuple[float, ...]]:
    """Per-chunk partials of every chunk, in order, on one generator per call.

    kernel(rng, rows, count) draws a block of `rows` chunks of `count`
    trials in one call, chunk after chunk, and returns each partial as an
    array with one entry per chunk.
    """
    rng = substream(plan.master_seed, tag, 0, salt)
    parts: list[tuple[float, ...]] = []
    for rows, count in _blocks(plan.trials):
        parts.extend(zip(*(part.tolist() for part in kernel(rng, rows, count))))
    return parts


def _reduce_mean(
    parts: Sequence[tuple[float, ...]],
    plan: TrialPlan,
    scale: float = 1.0,
    shift: float = 0.0,
) -> EmpiricalEstimate:
    """Combine per-chunk (sum, sum of squares) of values less `shift` into
    scale * (shift + mean +- z s / sqrt(n)).

    The variance is formed in one pass, as sum of squares less n mean^2,
    which cancels when values sit far from zero against their spread; a
    kernel keeps it by summing its values less a shift near their mean.
    A spread under 64 ulps of the sum of squares is lost to rounding (mean
    SNR within 4e-7 of radius ratio 1), so the interval is unbounded, not 0.
    """
    n = plan.trials
    total = math.fsum(p[0] for p in parts)
    total_sq = math.fsum(p[1] for p in parts)
    mean = total / n
    spread = total_sq - n * mean * mean
    if n > 1 and spread > 64.0 * math.ulp(total_sq):
        half = scale * CONFIDENCE_Z * math.sqrt(spread / (n - 1) / n)
    else:
        # One trial, or a spread lost to rounding, gives no spread estimate.
        half = math.inf
    return EmpiricalEstimate(mean=scale * (shift + mean), half_width=half, trials=n)


def _rate_estimate(successes: int, plan: TrialPlan) -> EmpiricalEstimate:
    n = plan.trials
    p = successes / n
    half = CONFIDENCE_Z * math.sqrt(max(p * (1.0 - p), 0.0) / n)
    return EmpiricalEstimate(mean=p, half_width=half, trials=n)


def mc_mean_snr(
    params: RadarLinkParams,
    region: SensingRegion,
    plan: TrialPlan,
    workers: int = 1,
    salt: int = 0,
) -> EmpiricalEstimate:
    """Mean per-target SNR over random positions (linear scale).

    Estimates E[per_uav_snr(r)] under the normalized radial density
    f(r) = 3 r^2 / (R^3 - r_in^3), the "normalized" closed form; the
    "unnormalized" one differs by exactly the sin(max_elevation) factor.
    Ranges are importance-sampled from the log-uniform g(r) = 1 / (r ln eps):
    r = r_in eps^u for one uniform u per trial, weighted by f(r) / g(r). The
    weighted SNR is K r_in / r = K exp(-u ln eps), with
    K = per_uav_snr(1 km) 3 ln eps / ((R^3 - r_in^3) r_in), so its relative
    variance grows as ln eps, not as eps^3 like r^-4 drawn from f. Only the
    density f is read, never the closed-form moment, so the oracle stays
    independent. Raises ZeroDivisionError or OverflowError, before drawing,
    when K, the largest weighted value, is not a finite float.
    """
    import numpy as np

    # per_uav_snr(d) = C / d^4; evaluate the d = 1 km constant once through
    # the real link-budget route so a defect there shifts this estimate.
    # R^3 - r_in^3 is R^3 (1 - eps^-3), written with expm1 so that it does
    # not cancel as eps -> 1. Checked on Python floats, which raise where
    # numpy would warn and carry inf or nan into the estimate.
    log_ratio = math.log(region.radius_ratio)
    shell = region.max_range**3 * -math.expm1(-3.0 * log_ratio)
    weight = per_uav_snr(params, 1.0) * 3.0 * log_ratio / (shell * region.inner_range)
    if not math.isfinite(weight):
        raise OverflowError(
            f"mean SNR: the weighted per-trial SNR at the inner range "
            f"{region.inner_range:g} km is not finite"
        )

    def kernel(rng: np.random.Generator, rows: int, count: int) -> tuple[np.ndarray, ...]:
        values = rng.random((rows, count))
        values *= -log_ratio
        np.exp(values, out=values)
        return values.sum(axis=1), np.vecdot(values, values)

    parts = _run_chunks(plan, TAG_POSITIONS, kernel, salt)
    return _reduce_mean(parts, plan, weight)


def mc_detection_rates(
    snr: float,
    pfa: float,
    cpi_symbols: int,
    plan: TrialPlan,
    workers: int = 1,
    salt: int = 0,
) -> tuple[EmpiricalEstimate, EmpiricalEstimate]:
    """Empirical (PD, PFA) of the LLR test at post-integration SNR `snr`.

    Coherently summing N unit-variance complex noise symbols with the known
    per-symbol amplitude sqrt(snr / N) gives an LLR that is normal with
    mean -snr under H0, +snr under H1 and variance 2 snr, for any N (Kay,
    Fundamentals of Statistical Signal Processing, Vol. II, 1998, ch. 4).
    So each trial draws one standard normal Z, shared by both hypotheses,
    and compares it against lrt_threshold(snr, pfa) folded onto Z: a false
    alarm is Z > (gamma + snr) / sqrt(2 snr), a detection
    Z > (gamma - snr) / sqrt(2 snr). Each rate is an unbiased binomial
    estimate, and every false alarm is also a detection.

    cpi_symbols is checked (>= 1) but not read: the estimate is the same for
    every N. The config key of that name is gone; like `workers`, the
    argument stays only because the benchmark (perfbench/workloads.py and
    perfbench/layers.py) passes it positionally.
    """
    import numpy as np

    if not snr > 0.0:
        raise ValueError(f"snr must be > 0, got {snr}")
    if not 0.0 < pfa < 1.0:
        raise ValueError(f"pfa must be in (0, 1), got {pfa}")
    if cpi_symbols < 1:
        raise ValueError(f"cpi_symbols must be >= 1, got {cpi_symbols}")
    gamma = lrt_threshold(snr, pfa)
    root = math.sqrt(2.0 * snr)
    false_alarm_at = (gamma + snr) / root
    detection_at = (gamma - snr) / root

    rng = substream(plan.master_seed, TAG_DETECTION, 0, salt)
    detections = false_alarms = 0
    for rows, count in _blocks(plan.trials):
        # One draw serves both hypotheses (common random numbers).
        noise = rng.standard_normal((rows, count))
        detections += int(np.count_nonzero(noise > detection_at))
        false_alarms += int(np.count_nonzero(noise > false_alarm_at))
    return _rate_estimate(detections, plan), _rate_estimate(false_alarms, plan)


def mc_integration_energy(
    params: RadarLinkParams,
    path_amplitude: float,
    plan: TrialPlan,
    workers: int = 1,
    salt: int = 0,
) -> EmpiricalEstimate:
    """Mean energy of the coherent sum of cpi_symbols echoes (mW scale).

    Per trial: y_n = kappa * sqrt(P_T / K) * path_amplitude + noise with
    per-symbol noise variance sigma^2; the statistic is |sum_n y_n|^2.
    Expected value: N^2 * A^2 + N * sigma^2, i.e. signal energy grows as
    N^2 while noise only as N. The sum of the N independent CN(0, sigma^2)
    noise symbols is exactly CN(0, N sigma^2), so each chunk draws its
    trials' real parts, then their imaginary parts, as standard normals
    scaled by sqrt(N sigma^2 / 2). The kernel sums each trial's energy less
    the echo's (N A)^2, so the spread is not lost to cancellation when the
    echo swamps the noise.
    """
    import numpy as np

    if path_amplitude < 0.0:
        raise ValueError(f"path_amplitude must be >= 0, got {path_amplitude}")
    n_sym = params.cpi_symbols
    amp = (
        params.gain_amplitude
        * math.sqrt(params.tx_power_mw / params.uavs_per_symbol)
        * path_amplitude
    )
    scale = math.sqrt(n_sym * params.noise_power_mw / 2.0)
    echo = n_sym * amp

    def kernel(rng: np.random.Generator, rows: int, count: int) -> tuple[np.ndarray, ...]:
        # |N A + real + j imag|^2 - (N A)^2 = real (real + 2 N A) + imag^2,
        # formed without a complex temporary.
        noise = rng.standard_normal((rows, 2, count))
        noise *= scale
        real, imag = noise[:, 0], noise[:, 1]
        real *= real + 2.0 * echo
        np.square(imag, out=imag)
        real += imag
        return real.sum(axis=1), np.vecdot(real, real)

    parts = _run_chunks(plan, TAG_ENERGY, kernel, salt)
    return _reduce_mean(parts, plan, shift=echo * echo)
