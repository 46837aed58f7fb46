import math
from dataclasses import replace

import numpy as np
import pytest

from uavcap.detection import pd_single
from uavcap.geometry import SensingRegion
from uavcap.link import RadarLinkParams, mean_single_uav_snr, path_gain_squared
from uavcap.montecarlo import (
    EmpiricalEstimate,
    TrialPlan,
    _run_chunks,
    confidence_z,
    mc_detection_rates,
    mc_integration_energy,
    mc_mean_snr,
    substream,
)

SEED = 424242


def test_trial_plan_validation() -> None:
    with pytest.raises(ValueError, match="trials"):
        TrialPlan(0, 1)
    with pytest.raises(ValueError, match="master_seed"):
        TrialPlan(10, -1)
    with pytest.raises(ValueError, match="confidence"):
        TrialPlan(10, 1, confidence=1.0)


def test_estimate_interval_endpoints() -> None:
    est = EmpiricalEstimate(mean=2.0, half_width=0.5, trials=100)
    assert est.low == 1.5
    assert est.high == 2.5


def test_confidence_z_reference() -> None:
    assert confidence_z(0.99) == pytest.approx(2.5758293035489004, rel=1e-12)
    assert confidence_z(0.95) == pytest.approx(1.959963984540054, rel=1e-12)


def test_substream_determinism_and_separation() -> None:
    a = substream(SEED, 1, 0).random(4)
    b = substream(SEED, 1, 0).random(4)
    assert np.array_equal(a, b)
    for other in [
        substream(SEED, 2, 0),       # different tag
        substream(SEED, 1, 1),       # different chunk
        substream(SEED, 1, 0, 1),    # different salt
        substream(SEED + 1, 1, 0),   # different master seed
    ]:
        assert not np.array_equal(a, other.random(4))


def test_mc_mean_snr_bit_reproducible(
    reference_link: RadarLinkParams, reference_region: SensingRegion
) -> None:
    plan = TrialPlan(10_000, SEED)
    first = mc_mean_snr(reference_link, reference_region, plan)
    second = mc_mean_snr(reference_link, reference_region, plan)
    assert first == second


def test_mc_mean_snr_worker_invariance(
    reference_link: RadarLinkParams, reference_region: SensingRegion
) -> None:
    plan = TrialPlan(10_000, SEED)
    serial = mc_mean_snr(reference_link, reference_region, plan, workers=1)
    for workers in (2, 4):
        parallel = mc_mean_snr(
            reference_link, reference_region, plan, workers=workers
        )
        assert parallel.mean == serial.mean
        assert parallel.half_width == serial.half_width


@pytest.mark.parametrize("trials", [1, 4095, 4096, 4097])
def test_mc_mean_snr_chunk_boundaries(
    reference_link: RadarLinkParams,
    reference_region: SensingRegion,
    trials: int,
) -> None:
    est = mc_mean_snr(reference_link, reference_region, TrialPlan(trials, SEED))
    assert est.trials == trials
    assert est.mean > 0.0


def test_mc_mean_snr_tracks_closed_form(
    reference_link: RadarLinkParams, reference_region: SensingRegion
) -> None:
    plan = TrialPlan(20_000, SEED)
    est = mc_mean_snr(reference_link, reference_region, plan)
    closed = mean_single_uav_snr(reference_link, reference_region)
    assert abs(est.mean - closed) < 5.0 * est.half_width / confidence_z(plan.confidence)


def test_mc_mean_snr_interval_shrinks(
    reference_link: RadarLinkParams, reference_region: SensingRegion
) -> None:
    small = mc_mean_snr(reference_link, reference_region, TrialPlan(2_000, SEED))
    large = mc_mean_snr(reference_link, reference_region, TrialPlan(20_000, SEED))
    ratio = small.half_width / large.half_width
    assert 2.0 < ratio < 5.0  # ~sqrt(10) with sampling noise


def test_mc_detection_rates_match_analytic() -> None:
    snr, pfa = 4.282, 0.05
    plan = TrialPlan(30_000, SEED)
    pd_est, pfa_est = mc_detection_rates(snr, pfa, cpi_symbols=3, plan=plan)
    pd_true = pd_single(snr, pfa)
    assert abs(pd_est.mean - pd_true) <= 3.0 * math.sqrt(
        pd_true * (1.0 - pd_true) / plan.trials
    )
    assert abs(pfa_est.mean - pfa) <= 3.0 * math.sqrt(
        pfa * (1.0 - pfa) / plan.trials
    )


def test_mc_detection_rates_integration_invariance() -> None:
    # The same post-integration SNR gives the same statistics regardless of
    # how many symbols carried it; with a shared seed the estimates are
    # statistically indistinguishable (checked against 4 SE).
    plan = TrialPlan(30_000, SEED)
    one, _ = mc_detection_rates(4.0, 0.05, cpi_symbols=1, plan=plan)
    many, _ = mc_detection_rates(4.0, 0.05, cpi_symbols=6, plan=plan)
    se = math.sqrt(0.9 * 0.1 / plan.trials)
    assert abs(one.mean - many.mean) < 4.0 * se * math.sqrt(2.0)


def test_mc_detection_rates_saturate_when_threshold_unbounded() -> None:
    # pfa -> 1 drives the threshold to -inf; every trial is declared a hit.
    pd_est, pfa_est = mc_detection_rates(
        10.0, 1.0 - 1e-12, cpi_symbols=3, plan=TrialPlan(5_000, SEED)
    )
    assert pd_est.mean == 1.0
    assert pfa_est.mean == 1.0


def test_mc_detection_rates_validation() -> None:
    plan = TrialPlan(10, SEED)
    with pytest.raises(ValueError, match="snr"):
        mc_detection_rates(0.0, 0.05, 3, plan)
    with pytest.raises(ValueError, match="pfa"):
        mc_detection_rates(1.0, 0.0, 3, plan)
    with pytest.raises(ValueError, match="cpi_symbols"):
        mc_detection_rates(1.0, 0.05, 0, plan)


@pytest.mark.parametrize("n_symbols", [1, 4])
def test_mc_integration_energy_matches_closed_form(
    reference_link: RadarLinkParams, n_symbols: int
) -> None:
    link = replace(reference_link, cpi_symbols=n_symbols)
    amplitude = math.sqrt(path_gain_squared(link, 1.0))
    plan = TrialPlan(30_000, SEED)
    est = mc_integration_energy(link, amplitude, plan)
    signal = link.gain_amplitude * math.sqrt(link.tx_power_mw) * amplitude
    expected = n_symbols**2 * signal**2 + n_symbols * link.noise_power_mw
    assert abs(est.mean - expected) <= 4.0 * est.half_width / confidence_z(
        plan.confidence
    )


def test_mc_integration_energy_validation(reference_link: RadarLinkParams) -> None:
    with pytest.raises(ValueError, match="path_amplitude"):
        mc_integration_energy(reference_link, -1.0, TrialPlan(10, SEED))


def test_workers_validation(
    reference_link: RadarLinkParams, reference_region: SensingRegion
) -> None:
    with pytest.raises(ValueError, match="workers"):
        mc_mean_snr(reference_link, reference_region, TrialPlan(10, SEED), workers=0)


# Pinned estimates, (cpi_symbols, seed, pd mean, pd half-width, pfa mean,
# pfa half-width, energy mean, energy half-width) at 10_000 trials (two full
# chunks and a partial one), snr 2, pfa 0.05, energy at 1 km. The detection
# columns come from the kernel that draws only the real noise blocks. The
# energy columns date from the complex-array kernels and pin the energy
# stream, which must not move.
KERNEL_PINS = [
    (1, 424242, 0.6416, 0.012351885515429338, 0.0502, 0.0056245142416108005, 7.794551325753482e-10, 1.756566795126318e-11),
    (1, 7, 0.6415, 0.01235264583716989, 0.0508, 0.00565623963218867, 7.892718771481069e-10, 1.7847984963456946e-11),
    (3, 424242, 0.6405, 0.012360216958561019, 0.0508, 0.00565623963218867, 4.658504962257905e-09, 7.990399721372163e-11),
    (3, 7, 0.6435, 0.012337328319871055, 0.0503, 0.005629817168346492, 4.661324090400875e-09, 8.224811370905943e-11),
    (8, 424242, 0.6414, 0.012353405575024033, 0.0493, 0.005576507442750612, 2.750450903425887e-08, 3.2858425946863765e-10),
    (8, 7, 0.637, 0.012386257610556691, 0.0504, 0.005635113927343607, 2.7525207130790106e-08, 3.3522420326190754e-10),
    (16, 424242, 0.6487, 0.012296403431212998, 0.0521, 0.005724231679714118, 1.0318054621466909e-07, 9.132837304572766e-10),
    (16, 7, 0.6402, 0.012362476925235354, 0.0504, 0.005635113927343607, 1.0319258207509628e-07, 9.39939558125091e-10),
]

@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("pin", KERNEL_PINS, ids=lambda pin: f"cpi{pin[0]}-seed{pin[1]}")
def test_kernels_reproduce_pinned_estimates(pin: tuple, workers: int) -> None:
    cpi, seed, *expected = pin
    plan = TrialPlan(10_000, seed)
    link = replace(RadarLinkParams(), cpi_symbols=cpi)
    amplitude = math.sqrt(path_gain_squared(link, 1.0))
    pd_est, pfa_est = mc_detection_rates(2.0, 0.05, cpi, plan, workers)
    energy = mc_integration_energy(link, amplitude, plan, workers)
    for estimate, mean, half_width in zip(
        (pd_est, pfa_est, energy), expected[0::2], expected[1::2]
    ):
        assert estimate.mean == mean
        assert estimate.half_width == pytest.approx(half_width, rel=1e-15, abs=0.0)


# Pinned zero-amplitude energies, (cpi_symbols, seed, mean, half-width) at
# 10_000 trials. With no echo the estimate is noise alone, so unlike the
# signal-dominated KERNEL_PINS it reads every bit of the per-trial sums.
# cpi_symbols 3 and 7 date from numpy's .sum(axis=1), which adds up to 7
# columns left to right; 8 and 16 pin the left-to-right column sums.
ZERO_AMPLITUDE_ENERGY_PINS = [
    (3, 424242, 1.207565398824336e-09, 3.090810445220401e-11),
    (3, 7, 1.2171967281748558e-09, 3.174222849564927e-11),
    (7, 424242, 2.8077666092900525e-09, 7.228369975976171e-11),
    (7, 7, 2.8211371563934803e-09, 7.338761595786437e-11),
    (8, 424242, 3.178672382102157e-09, 8.223647250363831e-11),
    (8, 7, 3.2836504525564597e-09, 8.611483039755355e-11),
    (16, 424242, 6.29757814084927e-09, 1.6192105454913398e-10),
    (16, 7, 6.457911088438217e-09, 1.6631383789552145e-10),
]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize(
    "pin", ZERO_AMPLITUDE_ENERGY_PINS, ids=lambda pin: f"cpi{pin[0]}-seed{pin[1]}"
)
def test_zero_amplitude_energy_reproduces_pinned_sums(pin: tuple, workers: int) -> None:
    cpi, seed, mean, half_width = pin
    link = replace(RadarLinkParams(), cpi_symbols=cpi)
    est = mc_integration_energy(link, 0.0, TrialPlan(10_000, seed), workers)
    assert (est.mean, est.half_width) == (mean, half_width)


@pytest.mark.parametrize("workers", [1, 2])
def test_run_chunks_hands_each_chunk_its_substream(workers: int) -> None:
    # Every call leaves its generator part way through a Philox block and
    # holding half a 32-bit word, which a re-seated generator must drop.
    def kernel(rng: np.random.Generator, count: int) -> tuple[float, ...]:
        normals = rng.standard_normal(3)
        half_word = rng.integers(2**32, dtype=np.uint32)
        return (float(count), *map(float, normals), float(half_word))

    sizes = [4096, 4096, 4096, 5]  # three full chunks and a ragged one
    drawn = _run_chunks(TrialPlan(sum(sizes), SEED), 3, kernel, workers, salt=9)
    expected = [
        kernel(substream(SEED, 3, index, 9), count)
        for index, count in enumerate(sizes)
    ]
    assert drawn == expected


# Pinned mc_mean_snr estimates at the reference scenario: (seed, mean,
# half-width) at 10_000 trials, one range uniform per trial.
MEAN_SNR_PINS = [
    (424242, 73.31557985335363, 18.815335959738036),
    (7, 80.34841741861891, 17.910170219994512),
]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("pin", MEAN_SNR_PINS, ids=lambda pin: f"seed{pin[0]}")
def test_mean_snr_reproduces_pinned_estimates(
    reference_link: RadarLinkParams,
    reference_region: SensingRegion,
    pin: tuple,
    workers: int,
) -> None:
    seed, mean, half_width = pin
    est = mc_mean_snr(reference_link, reference_region, TrialPlan(10_000, seed), workers)
    assert est.mean == mean
    assert est.half_width == pytest.approx(half_width, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("salt", [0, 5])
@pytest.mark.parametrize("tag", [1, 3])
@pytest.mark.parametrize("index", [0, 1, 255, 2**40])
def test_substream_equals_seeded_jumped_philox(index: int, tag: int, salt: int) -> None:
    # substream starts Philox at a cached key and counter index << 128; that
    # must stay the stream of SeedSequence seeding plus jumped(index).
    for seed in (SEED, 2**40):
        seeded = np.random.Philox(np.random.SeedSequence(seed, spawn_key=(tag, salt)))
        expected = np.random.Generator(seeded.jumped(index)).standard_normal(1000)
        drawn = substream(seed, tag, index, salt).standard_normal(1000)
        assert np.array_equal(drawn, expected)
