"""Deterministic Monte Carlo oracles for the closed-form link/detector math.

Reproducibility contract: a run is fully determined by (master_seed, tag,
salt, trial count). Each estimator call draws from one generator,
substream(master_seed, tag, 0, salt): SFC64 seeded by
SeedSequence(master_seed, spawn_key=(tag, salt, 0)). Trials are processed
in fixed chunks of _CHUNK, drawn from that one stream in chunk order, and
the per-chunk partial sums are combined with math.fsum in chunk order. So
raising the trial count only extends the stream: the first k full chunks
of a longer run are the chunks of a k-chunk run.

The estimators' `workers` parameter is ignored. It stays only because the
benchmark (perfbench/workloads.py and perfbench/layers.py) passes it
positionally, and goes once the benchmark stops passing it.

Each kernel draws only the samples its statistic reads: mean SNR one
uniform per trial (a log-uniform range, importance-weighted), detection one
normal per trial that both hypotheses share (the LLR is normal with the same
law for any number of integrated symbols; H0 and H1 compare that one draw
against two thresholds, as common random numbers), and the integration
energy both the real and the imaginary noise blocks. The energy kernel sums
a trial's cpi_symbols noise symbols left to right, one column at a time
(_row_sums), so the summation order is fixed here rather than by numpy's
reduction.

Estimates carry two-sided confidence half-widths (normal approximation;
binomial standard error for rates).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

from .detection import lrt_threshold, q_inv
from .geometry import SensingRegion
from .link import RadarLinkParams, per_uav_snr

# numpy is imported only where arrays are built, so that the closed-form
# commands never load it.
if TYPE_CHECKING:
    import numpy as np

_CHUNK = 4096

# Tags keep the substreams of unrelated estimators disjoint under one seed.
TAG_POSITIONS = 1
TAG_DETECTION = 2
TAG_ENERGY = 3
TAG_SCENARIOS = 4  # the random scenarios of validate's solver agreement check


@dataclass(frozen=True)
class TrialPlan:
    """Trial count, master seed, and confidence level for one estimator run."""

    trials: int
    master_seed: int
    confidence: float = 0.99

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be >= 0, got {self.master_seed}")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError(f"confidence must be in (0, 1), got {self.confidence}")


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


def confidence_z(confidence: float) -> float:
    """Two-sided normal quantile: z with P(|N(0,1)| <= z) = confidence."""
    return q_inv((1.0 - confidence) / 2.0)


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


def _chunk_sizes(trials: int) -> list[int]:
    full, rest = divmod(trials, _CHUNK)
    return [_CHUNK] * full + ([rest] if rest else [])


def _run_chunks(
    plan: TrialPlan,
    tag: int,
    kernel: Callable[[np.random.Generator, int], tuple[float, ...]],
    salt: int,
) -> list[tuple[float, ...]]:
    """Apply kernel to every chunk, in order, on one generator per call."""
    rng = substream(plan.master_seed, tag, 0, salt)
    return [kernel(rng, count) for count in _chunk_sizes(plan.trials)]


def _row_sums(block: np.ndarray) -> np.ndarray:
    """Per-row sums of a 2-D block, added left to right one column at a time.

    The order is defined here: block.sum(axis=1) agrees bit for bit only up
    to 7 columns (numpy adds 8 or more pairwise), and runs a per-row loop
    that takes several times as long on the narrow blocks the kernels sum.
    """
    total = block[:, 0].copy()
    for column in range(1, block.shape[1]):
        total += block[:, column]
    return total


def _noise_sums(
    rng: np.random.Generator, count: int, n_sym: int, scale: float
) -> np.ndarray:
    """Per-trial sums of one (count, n_sym) normal block scaled by `scale`."""
    block = rng.standard_normal((count, n_sym))
    block *= scale
    return _row_sums(block)


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
    """
    n = plan.trials
    total = math.fsum(p[0] for p in parts)
    total_sq = math.fsum(p[1] for p in parts)
    mean = total / n
    if n > 1:
        variance = max((total_sq - n * mean * mean) / (n - 1), 0.0)
        half = scale * confidence_z(plan.confidence) * math.sqrt(variance / n)
    else:
        # One trial gives no spread estimate, so the interval is unbounded.
        half = math.inf
    return EmpiricalEstimate(mean=scale * (shift + mean), half_width=half, trials=n)


def _rate_estimate(successes: int, plan: TrialPlan) -> EmpiricalEstimate:
    n = plan.trials
    p = successes / n
    half = confidence_z(plan.confidence) * math.sqrt(max(p * (1.0 - p), 0.0) / n)
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

    def kernel(rng: np.random.Generator, count: int) -> tuple[float, ...]:
        values = rng.random(count)
        values *= -log_ratio
        np.exp(values, out=values)
        return float(values.sum()), float(np.dot(values, values))

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
    every N. Like `workers`, it stays only because the benchmark
    (perfbench/workloads.py and perfbench/layers.py) passes it positionally;
    ROADMAP item 6 removes it together with the cpi_symbols key.
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

    def kernel(rng: np.random.Generator, count: int) -> tuple[float, ...]:
        # One draw serves both hypotheses (common random numbers).
        noise = rng.standard_normal(count)
        detections = int(np.count_nonzero(noise > detection_at))
        false_alarms = int(np.count_nonzero(noise > false_alarm_at))
        return detections, false_alarms

    parts = _run_chunks(plan, TAG_DETECTION, kernel, salt)
    detections = sum(p[0] for p in parts)
    false_alarms = sum(p[1] for p in parts)
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
    N^2 while noise only as N. The kernel sums each trial's energy less
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
    scale = math.sqrt(params.noise_power_mw / 2.0)
    echo = n_sym * amp

    def kernel(rng: np.random.Generator, count: int) -> tuple[float, ...]:
        # Sum the real and imaginary noise blocks apart and form
        # |N A + real + j imag|^2 - (N A)^2 = real (real + 2 N A) + imag^2
        # on the per-trial sums: no complex temporary is built.
        real = _noise_sums(rng, count, n_sym, scale)
        imag = _noise_sums(rng, count, n_sym, scale)
        real *= real + 2.0 * echo
        np.square(imag, out=imag)
        real += imag
        return float(real.sum()), float(np.dot(real, real))

    parts = _run_chunks(plan, TAG_ENERGY, kernel, salt)
    return _reduce_mean(parts, plan, shift=echo * echo)
