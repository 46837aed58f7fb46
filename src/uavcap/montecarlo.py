"""Deterministic Monte Carlo oracles for the closed-form link/detector math.

Reproducibility contract: a run is fully determined by (master_seed, tag,
salt, trial count). Trials are processed in fixed chunks of _CHUNK. Philox
is counter-based, so chunk i needs no per-chunk seeding: its substream is
Philox seeded by SeedSequence(master_seed, spawn_key=(tag, salt)), built
once and cached, and started at counter i << 128. That is draw for draw
the stream of Philox(SeedSequence(...)).jumped(i). Each estimator call
builds one generator for chunk 0 and re-seats it on every later chunk:
counter i << 128 and an empty buffer, which is the state a freshly built
substream(master_seed, tag, i, salt) starts from. Chunks run in order and
their partial sums are combined with math.fsum in chunk order.

The estimators' `workers` parameter is ignored. It stays only because the
benchmark (perfbench/workloads.py and perfbench/layers.py) passes it
positionally, and goes once the benchmark stops passing it.

Each kernel draws only the samples its statistic reads: mean SNR one
uniform per trial (the range), detection one real normal block that both
hypotheses share (the LLR reads only the real part of the noise sum; H0
scores the block, H1 the block plus the echo, as common random numbers),
and the integration energy both the real and the imaginary noise blocks. The
cpi_symbols noise symbols of a trial are summed left to right, one column
at a time (_row_sums), so the summation order is fixed here rather than by
numpy's reduction.

Estimates carry two-sided confidence half-widths (normal approximation;
binomial standard error for rates).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Sequence

from .detection import lrt_threshold, q_inv
from .geometry import SensingRegion, sample_ranges
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


@lru_cache(maxsize=64)
def _seed_sequence(
    master_seed: int, tag: int, salt: int
) -> np.random.SeedSequence:
    """SeedSequence(master_seed, spawn_key=(tag, salt)), built once per triple.

    Seeding Philox with it skips the OS-entropy SeedSequence that a bare
    Philox(key=...) builds and discards. Every substream of the triple
    shares it: seeding only reads its state.
    """
    import numpy as np

    return np.random.SeedSequence(master_seed, spawn_key=(tag, salt))


def substream(
    master_seed: int, tag: int, index: int, salt: int = 0
) -> np.random.Generator:
    """Counter-derived generator for chunk `index` of operation `tag`.

    salt separates repeated uses of one estimator under the same seed
    (e.g. one sweep row per salt) without touching the chunk counter.
    Draw for draw equal to
    Generator(Philox(SeedSequence(master_seed, spawn_key=(tag, salt))).jumped(index)):
    a jump adds index to the third 64-bit word of the 256-bit counter.
    """
    import numpy as np

    bits = np.random.Philox(
        _seed_sequence(master_seed, tag, salt), counter=index << 128
    )
    return np.random.Generator(bits)


def _chunk_sizes(trials: int) -> list[int]:
    full, rest = divmod(trials, _CHUNK)
    return [_CHUNK] * full + ([rest] if rest else [])


def _run_chunks(
    plan: TrialPlan,
    tag: int,
    kernel: Callable[[np.random.Generator, int], tuple[float, ...]],
    salt: int,
) -> list[tuple[float, ...]]:
    """Apply kernel to every chunk; returns per-chunk tuples in chunk order.

    One generator is built with substream for chunk 0 and re-seated for
    every later one, which costs a fraction of a build and gives the
    chunk's substream draw for draw.
    """
    rng = substream(plan.master_seed, tag, 0, salt)
    key = tuple(int(word) for word in rng.bit_generator.state["state"]["key"])
    parts = []
    for index, count in enumerate(_chunk_sizes(plan.trials)):
        if index:
            rng.bit_generator.state = _philox_state(key, index)
        parts.append(kernel(rng, count))
    return parts


def _philox_state(key: tuple[int, int], index: int) -> dict:
    """Philox state at counter index << 128 with an empty output buffer.

    That is the state substream(..., index, ...) starts from, so a generator
    re-seated with it draws what a freshly built one would. The counter is
    four 64-bit words, low word first; chunk indices fit in the third.
    """
    return {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, index, 0], "key": key},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


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
    parts: Sequence[tuple[float, ...]], plan: TrialPlan
) -> EmpiricalEstimate:
    """Combine per-chunk (sum, sum of squares) into mean +- z * s / sqrt(n)."""
    n = plan.trials
    total = math.fsum(p[0] for p in parts)
    total_sq = math.fsum(p[1] for p in parts)
    mean = total / n
    if n > 1:
        variance = max((total_sq - n * mean * mean) / (n - 1), 0.0)
    else:
        variance = 0.0
    half = confidence_z(plan.confidence) * math.sqrt(variance / n)
    return EmpiricalEstimate(mean=mean, half_width=half, trials=n)


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

    Samples positions from the region's normalized density and averages
    per_uav_snr over the sampled ranges, so this estimates the
    "normalized" closed form; the "unnormalized" one differs by exactly
    the sin(max_elevation) factor. Raises ZeroDivisionError or
    OverflowError, before drawing, when the per-trial SNR at the inner
    radius (the largest one) is not a finite float.
    """
    import numpy as np

    # per_uav_snr(d) = C / d^4; evaluate the d = 1 km constant once through
    # the real link-budget route so a defect there shifts this estimate.
    snr_at_unit = per_uav_snr(params, 1.0)
    # Checked on Python floats, which raise where numpy would warn and
    # carry inf or nan into the estimate.
    if not math.isfinite(snr_at_unit / region.inner_range**4):
        raise OverflowError(
            f"mean SNR: the per-trial SNR at the inner range "
            f"{region.inner_range:g} km is not finite"
        )

    def kernel(rng: np.random.Generator, count: int) -> tuple[float, ...]:
        values = sample_ranges(region, rng, count)
        # r^4 as two exact squares, with no pow() pass.
        np.square(values, out=values)
        np.square(values, out=values)
        np.divide(snr_at_unit, values, out=values)
        return float(np.sum(values)), float(np.dot(values, values))

    parts = _run_chunks(plan, TAG_POSITIONS, kernel, salt)
    return _reduce_mean(parts, plan)


def mc_detection_rates(
    snr: float,
    pfa: float,
    cpi_symbols: int,
    plan: TrialPlan,
    workers: int = 1,
    salt: int = 0,
) -> tuple[EmpiricalEstimate, EmpiricalEstimate]:
    """Empirical (PD, PFA) of the LLR test at post-integration SNR `snr`.

    Per trial, cpi_symbols unit-variance complex noise symbols are
    coherently summed under each hypothesis with the known per-symbol
    amplitude sqrt(snr / cpi_symbols), and the LLR is compared against
    lrt_threshold(snr, pfa). The LLR reads only the real part of the sum,
    so only the real noise parts (variance 1/2 each) are drawn: one block
    per chunk, shared by both hypotheses. False alarms are scored on it
    and detections on it plus the summed amplitude. Each rate is still an
    unbiased binomial estimate, and since the LLR is monotone in the noise
    sum, every false alarm is also a detection.
    """
    import numpy as np

    if not snr > 0.0:
        raise ValueError(f"snr must be > 0, got {snr}")
    if not 0.0 < pfa < 1.0:
        raise ValueError(f"pfa must be in (0, 1), got {pfa}")
    if cpi_symbols < 1:
        raise ValueError(f"cpi_symbols must be >= 1, got {cpi_symbols}")
    gamma = lrt_threshold(snr, pfa)
    n_sym = cpi_symbols
    # After summing N symbols: signal amplitude N * sqrt(snr/N), noise
    # variance N, so the LLR statistic 2 Re(conj(sum) A_eff)/sigma_eff^2
    # - A_eff^2/sigma_eff^2 has mean +-snr and variance 2 snr.
    amp_eff = n_sym * math.sqrt(snr / n_sym)
    var_eff = float(n_sym)
    scale = math.sqrt(0.5)

    def llr_hits(summed: np.ndarray) -> int:
        # (2 A_eff summed - A_eff^2) / sigma_eff^2 > gamma, in place.
        summed *= 2.0 * amp_eff
        summed -= amp_eff * amp_eff
        summed /= var_eff
        return int(np.count_nonzero(summed > gamma))

    def kernel(rng: np.random.Generator, count: int) -> tuple[float, ...]:
        # One noise block serves both hypotheses (common random numbers).
        # llr_hits overwrites its argument, so H1 is built before H0 is scored.
        noise = _noise_sums(rng, count, n_sym, scale)
        received = noise + amp_eff
        false_alarms = llr_hits(noise)
        detections = llr_hits(received)
        return float(detections), float(false_alarms)

    parts = _run_chunks(plan, TAG_DETECTION, kernel, salt)
    detections = int(math.fsum(p[0] for p in parts))
    false_alarms = int(math.fsum(p[1] for p in parts))
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
    N^2 while noise only as N.
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

    def kernel(rng: np.random.Generator, count: int) -> tuple[float, ...]:
        # Sum the real and imaginary noise blocks apart and go complex only
        # on the per-trial sums: complex (count, n_sym) temporaries outgrow
        # the allocator's mmap threshold and page-fault on every chunk.
        real = _noise_sums(rng, count, n_sym, scale)
        imag = _noise_sums(rng, count, n_sym, scale)
        energy = np.abs(n_sym * amp + (real + 1j * imag)) ** 2
        return float(np.sum(energy)), float(np.dot(energy, energy))

    parts = _run_chunks(plan, TAG_ENERGY, kernel, salt)
    return _reduce_mean(parts, plan)
