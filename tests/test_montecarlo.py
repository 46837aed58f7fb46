import math
from dataclasses import replace

import numpy as np
import pytest

import uavcap.geometry
import uavcap.link
from uavcap.config import parse_config
from uavcap.detection import lrt_threshold, pd_single
from uavcap.geometry import SensingRegion
from uavcap.link import (
    RadarLinkParams,
    mean_single_uav_snr,
    path_gain_squared,
    per_uav_snr,
)
from uavcap.montecarlo import (
    TAG_DETECTION,
    TAG_ENERGY,
    TAG_POSITIONS,
    EmpiricalEstimate,
    TrialPlan,
    _rate_estimate,
    _reduce_mean,
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
    # The same post-integration SNR gives the same LLR law however many
    # symbols carried it, so under one seed the estimates agree exactly.
    plan = TrialPlan(30_000, SEED)
    one = mc_detection_rates(4.0, 0.05, cpi_symbols=1, plan=plan)
    for n_symbols in (3, 6, 8):
        assert mc_detection_rates(4.0, 0.05, n_symbols, plan) == one


@pytest.mark.parametrize("salt", [0, 3])
def test_mc_detection_rates_count_one_normal_per_trial(salt: int) -> None:
    # Draw for draw: the counts are the call's first `trials` normals
    # against the two folded thresholds, so a kernel that drew N normals
    # per trial would read other values.
    snr, pfa, trials = 2.0, 0.05, 10_000
    gamma = lrt_threshold(snr, pfa)
    root = math.sqrt(2.0 * snr)
    noise = substream(SEED, TAG_DETECTION, 0, salt).standard_normal(trials)
    pd_est, pfa_est = mc_detection_rates(
        snr, pfa, 3, TrialPlan(trials, SEED), salt=salt
    )
    assert pd_est.mean == np.count_nonzero(noise > (gamma - snr) / root) / trials
    assert pfa_est.mean == np.count_nonzero(noise > (gamma + snr) / root) / trials


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


@pytest.mark.parametrize("n_symbols", [1, 3, 8])
def test_mc_integration_energy_draws_one_complex_normal_per_trial(
    reference_link: RadarLinkParams, n_symbols: int
) -> None:
    # Draw for draw: each chunk takes its real parts, then its imaginary
    # parts, from the call's one stream, scaled to the integrated noise
    # CN(0, N sigma^2), so a kernel that drew N symbols per trial would read
    # other values.
    link = replace(reference_link, cpi_symbols=n_symbols)
    amplitude = math.sqrt(path_gain_squared(link, 1.0))
    per_symbol = link.gain_amplitude * math.sqrt(link.tx_power_mw / link.uavs_per_symbol)
    echo = n_symbols * (per_symbol * amplitude)
    scale = math.sqrt(n_symbols * link.noise_power_mw / 2.0)
    rng = substream(SEED, TAG_ENERGY, 0, 0)
    sums = []
    for count in (4096, 4096, 1808):
        real = rng.standard_normal(count) * scale
        imag = rng.standard_normal(count) * scale
        sums.append(float((real * (real + 2.0 * echo) + imag * imag).sum()))
    est = mc_integration_energy(link, amplitude, TrialPlan(10_000, SEED))
    assert est.mean == echo * echo + math.fsum(sums) / 10_000


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
# the one-SFC64-stream-per-call generator. The energy draws one real and one
# imaginary normal per trial for the integrated noise, scaled by
# sqrt(N sigma^2 / 2), and is formed less the echo's (N A)^2, which is added
# back to the mean. H0 and H1 are scored on one normal per trial, which N
# does not change, so the pd and pfa columns are the same for every
# cpi_symbols.
KERNEL_PINS = [
    (1, 424242, 0.6323, 0.012420111235120296, 0.051, 0.005666765925930113, 7.764948887100558e-10, 1.746723753226547e-11),
    (1, 7, 0.6375, 0.012382581057244267, 0.0525, 0.005744951155554317, 7.859336681433855e-10, 1.7423846951418077e-11),
    (3, 424242, 0.6323, 0.012420111235120296, 0.051, 0.005666765925930113, 4.6053833265883596e-09, 7.963050019393819e-11),
    (3, 7, 0.6375, 0.012382581057244267, 0.0525, 0.005744951155554317, 4.653568036159546e-09, 7.951554978547595e-11),
    (8, 424242, 0.6323, 0.012420111235120296, 0.051, 0.005666765925930113, 2.746217648423076e-08, 3.301241724391577e-10),
    (8, 7, 0.6375, 0.012382581057244267, 0.0525, 0.005744951155554317, 2.767001949799158e-08, 3.2975091578491475e-10),
    (16, 424242, 0.6323, 0.012420111235120296, 0.051, 0.005666765925930113, 1.0351753989768358e-07, 9.191057098304922e-10),
    (16, 7, 0.6375, 0.012382581057244267, 0.0525, 0.005744951155554317, 1.0410281156682927e-07, 9.181071963107602e-10),
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
# signal-dominated KERNEL_PINS it reads every bit of the per-trial energies.
# Every cpi_symbols reads the same normals, so each row differs from the
# others of its seed only by the noise scale sqrt(N sigma^2 / 2) and its
# rounding.
ZERO_AMPLITUDE_ENERGY_PINS = [
    (3, 424242, 1.194288276778904e-09, 3.075232265069777e-11),
    (3, 7, 1.1954639151906175e-09, 3.050209598650838e-11),
    (7, 424242, 2.7866726458174434e-09, 7.175541951829478e-11),
    (7, 7, 2.7894158021114414e-09, 7.11715573018529e-11),
    (8, 424242, 3.1847687380770773e-09, 8.200619373519405e-11),
    (8, 7, 3.1879037738416474e-09, 8.133892263068903e-11),
    (16, 424242, 6.369537476154154e-09, 1.6401238747038807e-10),
    (16, 7, 6.375807547683292e-09, 1.6267784526137803e-10),
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


def _probe_kernel(
    rng: np.random.Generator, rows: int, count: int
) -> tuple[np.ndarray, ...]:
    block = rng.standard_normal((rows, count))
    return np.full(rows, count), block[:, 0], block[:, -1], block.sum(axis=1)


def _probe_chunks(rng: np.random.Generator, sizes: list[int]) -> list[tuple]:
    # The probe's partials, recomputed one chunk at a time.
    chunks = (rng.standard_normal(count) for count in sizes)
    return [(x.size, float(x[0]), float(x[-1]), float(x.sum())) for x in chunks]


@pytest.mark.parametrize("salt", [1, 2])
def test_run_chunks_draws_every_chunk_in_order_from_one_substream(salt: int) -> None:
    sizes = [4096] * 9 + [5]  # a full block, one more full chunk, a ragged one
    drawn = _run_chunks(TrialPlan(sum(sizes), SEED), 3, _probe_kernel, salt)
    assert drawn == _probe_chunks(substream(SEED, 3, 0, salt), sizes)


@pytest.mark.parametrize("chunks", [1, 2, 3, 8, 9])
def test_raising_trials_only_extends_the_stream(chunks: int) -> None:
    # The first k full chunks of a longer run are the chunks of a k-chunk run.
    short = _run_chunks(TrialPlan(chunks * 4096, SEED), 2, _probe_kernel, 0)
    long = _run_chunks(TrialPlan(chunks * 4096 + 4097, SEED), 2, _probe_kernel, 0)
    assert long[:chunks] == short


def _chunk_sizes(trials: int) -> list[int]:
    full, rest = divmod(trials, 4096)
    return [4096] * full + ([rest] if rest else [])


@pytest.mark.parametrize("trials", [1, 4095, 4096, 8 * 4096, 8 * 4096 + 1, 17 * 4096 + 5])
def test_estimators_equal_a_chunk_at_a_time_recomputation(
    reference_link: RadarLinkParams, reference_region: SensingRegion, trials: int
) -> None:
    # Each chunk's partial sums, formed one 1-D chunk at a time from the
    # call's one stream and combined in chunk order, give the estimates
    # bit for bit, however the kernels group chunks into generator calls.
    salt = 2
    plan = TrialPlan(trials, SEED)
    sizes = _chunk_sizes(trials)

    log_ratio = math.log(reference_region.radius_ratio)
    shell = reference_region.max_range**3 * -math.expm1(-3.0 * log_ratio)
    weight = (
        per_uav_snr(reference_link, 1.0) * 3.0 * log_ratio
        / (shell * reference_region.inner_range)
    )
    rng = substream(SEED, TAG_POSITIONS, 0, salt)
    parts = []
    for count in sizes:
        values = np.exp(rng.random(count) * -log_ratio)
        parts.append((float(values.sum()), float(np.dot(values, values))))
    assert mc_mean_snr(
        reference_link, reference_region, plan, salt=salt
    ) == _reduce_mean(parts, plan, weight)

    snr, pfa = 2.0, 0.05
    root = math.sqrt(2.0 * snr)
    gamma = lrt_threshold(snr, pfa)
    rng = substream(SEED, TAG_DETECTION, 0, salt)
    detections = false_alarms = 0
    for count in sizes:
        noise = rng.standard_normal(count)
        detections += int(np.count_nonzero(noise > (gamma - snr) / root))
        false_alarms += int(np.count_nonzero(noise > (gamma + snr) / root))
    assert mc_detection_rates(snr, pfa, 3, plan, salt=salt) == (
        _rate_estimate(detections, plan),
        _rate_estimate(false_alarms, plan),
    )

    amplitude = math.sqrt(path_gain_squared(reference_link, 1.0))
    n_sym = reference_link.cpi_symbols
    per_symbol = reference_link.gain_amplitude * math.sqrt(
        reference_link.tx_power_mw / reference_link.uavs_per_symbol
    )
    echo = n_sym * (per_symbol * amplitude)
    scale = math.sqrt(n_sym * reference_link.noise_power_mw / 2.0)
    rng = substream(SEED, TAG_ENERGY, 0, salt)
    parts = []
    for count in sizes:
        real = rng.standard_normal(count) * scale
        imag = rng.standard_normal(count) * scale
        energy = real * (real + 2.0 * echo) + imag * imag
        parts.append((float(energy.sum()), float(np.dot(energy, energy))))
    assert mc_integration_energy(
        reference_link, amplitude, plan, salt=salt
    ) == _reduce_mean(parts, plan, shift=echo * echo)


# Pinned mc_mean_snr estimates at the reference scenario: (seed, mean,
# half-width) at 10_000 trials, one log-uniform range uniform per trial.
# Both are compared at rel=1e-14, not exactly: numpy sends the weight's exp
# to SVML kernels on AVX-512 hosts and to libm elsewhere, and the two round
# apart in the last bit (the half-width read 4e-16 apart at seed 7). Another
# salt or seed moves the mean by far more.
@pytest.mark.parametrize(
    "ratio, resolved", [(1 + 1e-6, True), (1 + 1e-8, False), (1 + 1e-13, False)]
)
def test_mean_snr_interval_is_unbounded_where_rounding_hides_the_spread(
    reference_link: RadarLinkParams, ratio: float, resolved: bool
) -> None:
    # The weighted values are exp(-u ln ratio), nearly uniform on a width of
    # ln ratio about 1: their standard deviation is ln ratio / sqrt(12) of
    # the mean. At 1 + 1e-8 that is below the rounding of the one-pass
    # variance, which once came out as 0 or as several times the truth.
    trials = 20_000
    est = mc_mean_snr(reference_link, SensingRegion(1.0, ratio, 0.6), TrialPlan(trials, 7))
    if resolved:
        expected = confidence_z(0.99) * est.mean * math.log(ratio) / math.sqrt(12 * trials)
        assert est.half_width == pytest.approx(expected, rel=0.05)
    else:
        assert est.half_width == math.inf


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
