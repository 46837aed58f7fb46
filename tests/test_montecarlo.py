import math
from dataclasses import replace

import numpy as np
import pytest

import uavcap.geometry
import uavcap.link
from uavcap.config import parse_config
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
        substream(SEED, 1, 1),       # different index
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


@pytest.mark.parametrize("radius_ratio", ["10", "100", "1e3", "1e6", "1e12"])
def test_mc_mean_snr_keeps_its_power_at_large_radius_ratios(radius_ratio: str) -> None:
    # Averaging r^-4 over ranges drawn from the r^2 density read 94 % low at
    # ratio 1000, 33 half-widths off; the log-uniform weights keep the
    # relative half-width within a few percent up to ratio 1e12.
    config = parse_config("", {"radius_ratio": radius_ratio})
    link, region = config.link(), config.region()
    est = mc_mean_snr(link, region, TrialPlan(100_000, SEED))
    closed = mean_single_uav_snr(link, region)
    assert abs(est.mean - closed) <= est.half_width
    assert est.half_width <= 0.03 * closed


def test_mc_mean_snr_does_not_read_the_closed_form(
    reference_link: RadarLinkParams,
    reference_region: SensingRegion,
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    # The oracle must stay independent of what it checks: no call into the
    # E[r^-4] moment or the mean-SNR closed form.
    def closed_form(*args: object, **kwargs: object) -> float:
        raise AssertionError("mc_mean_snr called a closed form")

    monkeypatch.setattr(uavcap.geometry, "expected_inverse_quartic_range", closed_form)
    monkeypatch.setattr(uavcap.link, "expected_inverse_quartic_range", closed_form)
    monkeypatch.setattr(uavcap.link, "mean_multi_uav_snr", closed_form)
    monkeypatch.setattr(uavcap.link, "mean_single_uav_snr", closed_form)
    est = mc_mean_snr(reference_link, reference_region, TrialPlan(5_000, SEED))
    assert est.mean > 0.0


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


def test_mc_detection_rates_never_detect_less_than_they_false_alarm() -> None:
    # Both hypotheses are scored on one noise block, and the LLR is monotone
    # in the noise sum, so every false alarm is also a detection. With
    # independent blocks, 21 of these 200 low-SNR calls read PD < PFA.
    for salt in range(200):
        pd_est, pfa_est = mc_detection_rates(0.05, 0.2, 3, TrialPlan(50, 7), salt=salt)
        assert pd_est.mean >= pfa_est.mean, salt


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


def test_estimators_read_salt_fifth_when_called_positionally(
    reference_link: RadarLinkParams, reference_region: SensingRegion
) -> None:
    # perfbench calls each estimator as (..., plan, 1, salt): the ignored
    # fourth argument must not shift salt out of its place.
    plan = TrialPlan(5_000, SEED)
    amplitude = math.sqrt(path_gain_squared(reference_link, 1.0))
    calls = (
        lambda *rest, **salt: mc_mean_snr(reference_link, reference_region, plan, *rest, **salt),
        lambda *rest, **salt: mc_detection_rates(2.0, 0.05, 3, plan, *rest, **salt),
        lambda *rest, **salt: mc_integration_energy(reference_link, amplitude, plan, *rest, **salt),
    )
    for call in calls:
        assert call(1, 3) == call(salt=3)
        assert call(1, 3) != call()


# perfbench passes 1 (its mc-oracle workload) or 2 (its w2 probe) as the
# estimators' ignored fourth argument; neither may move a pin.
PERFBENCH_WORKERS = [1, 2]


# Pinned estimates, (cpi_symbols, seed, pd mean, pd half-width, pfa mean,
# pfa half-width, energy mean, energy half-width) at 10_000 trials (two full
# chunks and a partial one), snr 2, pfa 0.05, energy at 1 km. They date from
# the one-SFC64-stream-per-call generator, with H0 and H1 scored on one noise
# block and the energy formed in place on the real and imaginary sums.
KERNEL_PINS = [
    (1, 424242, 0.6323, 0.012420111235120296, 0.051, 0.005666765925930113, 7.764948887100557e-10, 1.7467237532265473e-11),
    (1, 7, 0.6375, 0.012382581057244267, 0.0525, 0.005744951155554317, 7.859336681433855e-10, 1.7423846951418077e-11),
    (3, 424242, 0.6364, 0.012390650363839531, 0.0494, 0.005581866675415847, 4.623724648420374e-09, 7.962113404957609e-11),
    (3, 7, 0.6469, 0.012310750055195415, 0.0497, 0.005597906477653389, 4.591281131303208e-09, 7.994827590319819e-11),
    (8, 424242, 0.6382, 0.012377409533893652, 0.0479, 0.005500803342045295, 2.755314879410589e-08, 3.263693749287625e-10),
    (8, 7, 0.6387, 0.012373698179052223, 0.0516, 0.0056982001923298504, 2.738352541432754e-08, 3.268932996211745e-10),
    (16, 424242, 0.6343, 0.012405861131174851, 0.0482, 0.005517132941935202, 1.0385520527555283e-07, 9.145655748344373e-10),
    (16, 7, 0.6399, 0.012364731649458265, 0.05, 0.005613889814990204, 1.0295356255853533e-07, 9.095908360760599e-10),
]

@pytest.mark.parametrize("workers", PERFBENCH_WORKERS)
@pytest.mark.parametrize("pin", KERNEL_PINS, ids=lambda pin: f"cpi{pin[0]}-seed{pin[1]}")
def test_kernels_reproduce_pinned_estimates(pin: tuple, workers: int) -> None:
    cpi, seed, *expected = pin
    plan = TrialPlan(10_000, seed)
    link = replace(parse_config("").link(), cpi_symbols=cpi)
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
# cpi_symbols 3 and 7 are summed in the order numpy's .sum(axis=1) uses up
# to 7 columns; 8 and 16 pin the left-to-right column sums past it.
ZERO_AMPLITUDE_ENERGY_PINS = [
    (3, 424242, 1.1916596093693713e-09, 3.10237593512561e-11),
    (3, 7, 1.1893313830871574e-09, 3.0418445819131606e-11),
    (7, 424242, 2.761390186288375e-09, 7.229185881444994e-11),
    (7, 7, 2.7454223407589815e-09, 6.981833350675947e-11),
    (8, 424242, 3.1684157195741493e-09, 8.164174622762386e-11),
    (8, 7, 3.1024607677305766e-09, 8.014179648805514e-11),
    (16, 424242, 6.2924778016420746e-09, 1.6309918100277234e-10),
    (16, 7, 6.239529596797139e-09, 1.6346365173400445e-10),
]


@pytest.mark.parametrize("workers", PERFBENCH_WORKERS)
@pytest.mark.parametrize(
    "pin", ZERO_AMPLITUDE_ENERGY_PINS, ids=lambda pin: f"cpi{pin[0]}-seed{pin[1]}"
)
def test_zero_amplitude_energy_reproduces_pinned_sums(pin: tuple, workers: int) -> None:
    cpi, seed, mean, half_width = pin
    link = replace(parse_config("").link(), cpi_symbols=cpi)
    est = mc_integration_energy(link, 0.0, TrialPlan(10_000, seed), workers)
    assert (est.mean, est.half_width) == (mean, half_width)


def _probe_kernel(rng: np.random.Generator, count: int) -> tuple[float, ...]:
    # Leaves the generator holding half a 32-bit word, which the next chunk
    # must go on from rather than drop.
    normals = rng.standard_normal(3)
    half_word = rng.integers(2**32, dtype=np.uint32)
    return (float(count), *map(float, normals), float(half_word))


@pytest.mark.parametrize("salt", [1, 2])
def test_run_chunks_draws_every_chunk_in_order_from_one_substream(salt: int) -> None:
    sizes = [4096, 4096, 4096, 5]  # three full chunks and a ragged one
    drawn = _run_chunks(TrialPlan(sum(sizes), SEED), 3, _probe_kernel, salt)
    rng = substream(SEED, 3, 0, salt)
    assert drawn == [_probe_kernel(rng, count) for count in sizes]


@pytest.mark.parametrize("chunks", [1, 2, 3])
def test_raising_trials_only_extends_the_stream(chunks: int) -> None:
    # The first k full chunks of a longer run are the chunks of a k-chunk run.
    short = _run_chunks(TrialPlan(chunks * 4096, SEED), 2, _probe_kernel, 0)
    long = _run_chunks(TrialPlan(chunks * 4096 + 4097, SEED), 2, _probe_kernel, 0)
    assert long[:chunks] == short


# Pinned mc_mean_snr estimates at the reference scenario: (seed, mean,
# half-width) at 10_000 trials, one log-uniform range uniform per trial.
# Both are compared at rel=1e-14, not exactly: numpy sends the weight's exp
# to SVML kernels on AVX-512 hosts and to libm elsewhere, and the two round
# apart in the last bit (the half-width read 4e-16 apart at seed 7). Another
# salt or seed moves the mean by far more.
MEAN_SNR_PINS = [
    (424242, 76.61166732879248, 1.2589110338946534),
    (7, 77.33661762869016, 1.2650302884318307),
]


@pytest.mark.parametrize("workers", PERFBENCH_WORKERS)
@pytest.mark.parametrize("pin", MEAN_SNR_PINS, ids=lambda pin: f"seed{pin[0]}")
def test_mean_snr_reproduces_pinned_estimates(
    reference_link: RadarLinkParams,
    reference_region: SensingRegion,
    pin: tuple,
    workers: int,
) -> None:
    seed, mean, half_width = pin
    est = mc_mean_snr(reference_link, reference_region, TrialPlan(10_000, seed), workers)
    assert est.mean == pytest.approx(mean, rel=1e-14, abs=0.0)
    assert est.half_width == pytest.approx(half_width, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("salt", [0, 5])
@pytest.mark.parametrize("tag", [1, 3])
@pytest.mark.parametrize("index", [0, 1, 255, 2**40])
def test_substream_equals_seeded_jumped_philox(index: int, tag: int, salt: int) -> None:
    # The name dates from the Philox generator that substream used to jump
    # per chunk. The test pins substream's definition draw for draw: SFC64
    # seeded by SeedSequence(seed, spawn_key=(tag, salt, index)), no jump.
    for seed in (SEED, 2**40):
        seq = np.random.SeedSequence(seed, spawn_key=(tag, salt, index))
        expected = np.random.Generator(np.random.SFC64(seq)).standard_normal(1000)
        drawn = substream(seed, tag, index, salt).standard_normal(1000)
        assert np.array_equal(drawn, expected)
