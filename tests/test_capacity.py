import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special

from uavcap import capacity
from uavcap.capacity import (
    _REL_SLACK,
    CapacityQuery,
    CapacityResult,
    capacity_under_pd_bisect,
    capacity_under_pd_scan,
    capacity_under_snr,
    mean_snr_at,
)
from uavcap.config import parse_config
from uavcap.detection import (
    SURROGATE_MODES,
    SurrogateDomainError,
    joint_pd,
    log_joint_pd_surrogate,
    q_inv,
)
from uavcap.geometry import SensingRegion
from uavcap.link import db_to_linear, linear_to_db

# Frozen capacities for the reference scenario at 14 total symbols.
SNR_CAPACITY_NORMALIZED = 18
SNR_CAPACITY_UNNORMALIZED = 10
PD_CAPACITY_NORMALIZED = 33
PD_CAPACITY_UNNORMALIZED = 21
SNR_THRESHOLD_LINEAR = 19.952623149688797
RHO_NORMALIZED = 722.0448042763454


# The reference scenario: one frame of 14 symbols.
REFERENCE = parse_config("")
LINK = REFERENCE.link()
SPEC = REFERENCE.detection()


def _query(**overrides: object) -> CapacityQuery:
    return replace(REFERENCE.query(), **overrides)  # type: ignore[arg-type]


def test_query_validation() -> None:
    with pytest.raises(ValueError, match="total_symbols"):
        _query(total_symbols=0)
    with pytest.raises(ValueError, match="snr_mode"):
        _query(snr_mode="literal")
    with pytest.raises(ValueError, match="surrogate_mode"):
        _query(surrogate_mode="rederived")


def test_load_invariant_rho_reference() -> None:
    assert 2.0 * mean_snr_at(_query(), 1) == pytest.approx(RHO_NORMALIZED, rel=1e-12)
    assert db_to_linear(13.0) == pytest.approx(SNR_THRESHOLD_LINEAR, rel=1e-14)


def test_capacity_under_snr_reference_values() -> None:
    result = capacity_under_snr(_query())
    assert result.max_uavs == SNR_CAPACITY_NORMALIZED
    assert linear_to_db(result.achieved_snr) >= 13.0
    literal = capacity_under_snr(_query(snr_mode="unnormalized"))
    assert literal.max_uavs == SNR_CAPACITY_UNNORMALIZED


def test_capacity_under_snr_boundary_exact() -> None:
    # A budget exactly at the threshold supports exactly one target.
    query = _query()
    budget = mean_snr_at(query, 1)
    spec = replace(SPEC, snr_threshold_db=linear_to_db(budget))
    result = capacity_under_snr(_query(spec=spec))
    assert result.max_uavs == 1


def test_capacity_under_snr_zero_when_unreachable() -> None:
    weak = replace(LINK, tx_power_dbm=-30.0)
    result = capacity_under_snr(_query(link=weak))
    assert result.max_uavs == 0
    # Diagnostics report the single-target operating point.
    assert result.achieved_snr == pytest.approx(
        mean_snr_at(_query(link=weak), 1), rel=1e-12
    )
    assert linear_to_db(result.achieved_snr) < 13.0


def test_capacity_under_snr_scales_with_symbols() -> None:
    base = capacity_under_snr(_query()).max_uavs
    doubled = capacity_under_snr(_query(total_symbols=28)).max_uavs
    assert doubled == 2 * base


def test_capacity_under_snr_floor_at_large_budgets() -> None:
    # Budgets of about 1e9 to 1e12 UAVs, where a ratio can lie within the
    # predicate's 1e-9 slack below an integer; the last budgets lie past
    # 2**53 UAVs, where floats no longer resolve one UAV.
    threshold = db_to_linear(SPEC.snr_threshold_db)
    per_symbol = mean_snr_at(_query(total_symbols=1), 1) / threshold
    for total_symbols in [*np.geomspace(1e9, 1e12, 300) / per_symbol, 1e17, 1e20]:
        query = _query(total_symbols=int(total_symbols))
        ratio = mean_snr_at(query, 1) / threshold
        result = capacity_under_snr(query)
        assert abs(result.max_uavs - ratio) <= 2e-9 * ratio + 1.0


def test_pd_capacity_reference_values() -> None:
    for mode, expected in [
        ("normalized", PD_CAPACITY_NORMALIZED),
        ("unnormalized", PD_CAPACITY_UNNORMALIZED),
    ]:
        fast = capacity_under_pd_bisect(_query(snr_mode=mode))
        slow = capacity_under_pd_scan(_query(snr_mode=mode))
        assert fast.max_uavs == expected
        assert slow.max_uavs == expected
        assert fast.achieved_joint_pd >= 0.95
        # One more target would break the floor.
        over = joint_pd(
            mean_snr_at(_query(snr_mode=mode), expected + 1), expected + 1, 0.05
        )
        assert over < 0.95


def test_pd_capacity_zero_when_even_one_fails() -> None:
    weak = replace(LINK, tx_power_dbm=-30.0)
    result = capacity_under_pd_bisect(_query(link=weak))
    assert result.max_uavs == 0
    assert result.achieved_joint_pd < 0.95


@pytest.mark.parametrize("pfa, pd_threshold", [(0.05, 0.95), (0.01, 0.8), (0.2, 0.99)])
def test_pd_capacity_meets_a_log_ndtr_reference_up_to_1e10_uavs(
    pfa: float, pd_threshold: float
) -> None:
    # Budgets of 1 to 1.4e10 symbols (1e9 frames) give capacities of 3 to
    # about 1e10 UAVs.
    # The reference ln joint PD is L * ln Phi(sqrt(2 rho_1 / L) - xi), from
    # scipy; counts whose reference lies within the solver's 1e-9 relative
    # slack of ln P_th may go either way.
    spec = replace(SPEC, pfa=pfa, pd_threshold=pd_threshold)
    xi = -float(special.ndtri(pfa))
    ln_floor = math.log(pd_threshold)
    for total_symbols in np.geomspace(1.0, 14e9, 357):
        query = _query(spec=spec, total_symbols=int(total_symbols))
        mean_one = mean_snr_at(query, 1)
        count = capacity_under_pd_bisect(query).max_uavs
        for k, holds in ((count, True), (count + 1, False)):
            if k < 1:
                continue
            ln_pd = k * float(special.log_ndtr(math.sqrt(2.0 * mean_one / k) - xi))
            if abs(ln_pd - ln_floor) > 1e-9 * abs(ln_floor):
                assert (ln_pd >= ln_floor) == holds, (total_symbols, count, k)


def test_pd_capacity_at_vanishing_pfa_and_power() -> None:
    # PD is then about pfa = 1e-300: ln PD comes from ln Q, since log1p of
    # minus a miss probability of 1 is out of its domain.
    weak = replace(LINK, tx_power_dbm=-400.0)
    query = _query(link=weak, spec=replace(SPEC, pfa=1e-300))
    result = capacity_under_pd_bisect(query)
    assert result.max_uavs == 0
    assert result.achieved_joint_pd == pytest.approx(1e-300, rel=1e-6)


@settings(max_examples=300, deadline=None)
@given(
    pfa=st.one_of(
        st.floats(-300.0, -0.302).map(lambda exponent: 10.0**exponent),
        st.floats(0.4, 0.5, exclude_max=True),
    ),
    pd_threshold=st.one_of(
        st.floats(-300.0, -1e-3).map(lambda exponent: 10.0**exponent),
        st.floats(1e-16, 0.5).map(lambda miss: 1.0 - miss),
    ),
    tx_power_dbm=st.floats(-400.0, 3200.0),
    frames=st.integers(1, 10**9),
    surrogate_mode=st.sampled_from(SURROGATE_MODES),
)
# The surrogate leaves its window, and the exact solve answers 3383.
@example(0.05, 0.95, 20.0, 10**6, "expanded")
def test_pd_capacity_solves_across_the_accepted_domain(
    pfa: float, pd_threshold: float, tx_power_dbm: float, frames: int,
    surrogate_mode: str,
) -> None:
    query = _query(
        link=replace(LINK, tx_power_dbm=tx_power_dbm),
        spec=replace(SPEC, pfa=pfa, pd_threshold=pd_threshold),
        total_symbols=14 * frames,
        surrogate_mode=surrogate_mode,
    )
    try:
        finite = math.isfinite(mean_snr_at(query, 1))
    except OverflowError:
        finite = False
    if not finite:
        with pytest.raises(OverflowError):
            capacity_under_pd_bisect(query)
        return
    built = 0
    build = CapacityResult.__init__

    def counting(self, *args: object, **kwargs: object) -> None:
        nonlocal built
        built += 1
        build(self, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(CapacityResult, "__init__", counting)
        result = capacity_under_pd_bisect(query)
    # A solve builds its result once, a surrogate solve that falls back too.
    assert built == 1
    assert result.max_uavs >= 0
    # Each solver's joint PD is joint_pd's own, bit for bit (the scan is
    # capped: capacities in this domain run past 1e300).
    for solved in (result, capacity_under_snr(query), capacity_under_pd_scan(query, cap=8)):
        at = max(solved.max_uavs, 1)
        assert solved.achieved_joint_pd == joint_pd(solved.achieved_snr, at, pfa)
    if surrogate_mode == "exact":
        assert not result.surrogate_out_of_window
    elif result.surrogate_out_of_window:
        exact = capacity_under_pd_bisect(replace(query, surrogate_mode="exact"))
        assert result.max_uavs == exact.max_uavs
    else:
        # The surrogate alone decided the answer, inside its window.
        rho, xi = 2.0 * mean_snr_at(query, 1), q_inv(pfa)
        ln_floor = math.log(pd_threshold)
        floor = ln_floor - _REL_SLACK * abs(ln_floor)
        count = result.max_uavs
        if count >= 1:
            assert log_joint_pd_surrogate(rho, xi, count, surrogate_mode) >= floor
        assert log_joint_pd_surrogate(rho, xi, count + 1, surrogate_mode) < floor


def test_scan_cap_reports_lower_bound() -> None:
    result = capacity_under_pd_scan(_query(), cap=5)
    assert result.cap_reached
    assert result.max_uavs == 5
    assert not capacity_under_pd_scan(_query(), cap=100).cap_reached
    with pytest.raises(ValueError, match="cap"):
        capacity_under_pd_scan(_query(), cap=0)


def _record_probes(monkeypatch, query: CapacityQuery) -> list[tuple[str, int]]:
    # The (objective, count) pairs the query's solves evaluate, in call
    # order: "exact" for L * ln PD, the surrogate's mode for the surrogate.
    mean_one = mean_snr_at(query, 1)
    probes = []
    exact, surrogate = capacity.log_pd_single, capacity.log_joint_pd_surrogate

    def exact_at(snr: float, xi: float) -> float:
        count = round(mean_one / snr)
        assert snr == mean_one / count
        probes.append(("exact", count))
        return exact(snr, xi)

    def surrogate_at(rho: float, xi: float, num_uavs: int, mode: str) -> float:
        probes.append((mode, num_uavs))
        return surrogate(rho, xi, num_uavs, mode)

    monkeypatch.setattr(capacity, "log_pd_single", exact_at)
    monkeypatch.setattr(capacity, "log_joint_pd_surrogate", surrogate_at)
    return probes


def test_scan_evaluates_every_count_in_order(monkeypatch) -> None:
    # The scan is the bisection's oracle, so it must stay exhaustive: every
    # count from 1 up to the first failing one, and nothing more.
    probes = _record_probes(monkeypatch, _query())
    best = capacity_under_pd_scan(_query()).max_uavs
    assert best == PD_CAPACITY_NORMALIZED
    assert probes == [("exact", count) for count in range(1, best + 2)]


def test_scan_at_its_cap_evaluates_exactly_the_counts_below_it(monkeypatch) -> None:
    probes = _record_probes(monkeypatch, _query())
    assert capacity_under_pd_scan(_query(), cap=5).max_uavs == 5
    # The loop reads 1..5 and stops; 6 is never read.
    assert probes == [("exact", count) for count in range(1, 6)]


def test_reference_solves_read_the_answer_and_the_next_count_once(
    monkeypatch,
) -> None:
    # At the reference each seed lands on the answer, so the search reads
    # the answer and the next count, and nothing else.
    probes = _record_probes(monkeypatch, _query())
    assert capacity_under_pd_bisect(_query()).max_uavs == PD_CAPACITY_NORMALIZED
    assert probes == [("exact", 33), ("exact", 34)]
    reads = []
    real = capacity._largest

    def reading(holds, guess: int) -> int:
        def read(count: int) -> bool:
            reads.append(count)
            return holds(count)

        return real(read, guess)

    monkeypatch.setattr(capacity, "_largest", reading)
    assert capacity_under_snr(_query()).max_uavs == SNR_CAPACITY_NORMALIZED
    assert reads == [18, 19]


def test_surrogate_modes_solve_and_land_near_exact() -> None:
    exact = capacity_under_pd_bisect(_query(surrogate_mode="exact")).max_uavs
    expanded = capacity_under_pd_bisect(_query(surrogate_mode="expanded")).max_uavs
    fixed = capacity_under_pd_bisect(_query(surrogate_mode="fixed")).max_uavs
    assert abs(expanded - exact) <= 1
    # The fixed-coefficient variant inflates the per-UAV miss term by a
    # constant factor of ~1.5, so it lands at or below the exact capacity.
    assert fixed <= exact
    assert exact - fixed <= 4


def test_surrogate_out_of_window_solves_exactly_and_is_flagged() -> None:
    # At 2 km the fixed surrogate fails the floor at 2 UAVs and cannot be
    # evaluated at 1, below its window. A search mixing the two objectives
    # per count once returned 1 here, though the exact joint PD at 2 UAVs
    # is 0.985 >= 0.95.
    config = parse_config(
        "", {"surrogate_mode": "fixed", "pfa": "0.01", "radius_km": "2"}
    )
    query = config.query()
    result = capacity_under_pd_bisect(query)
    assert result.surrogate_out_of_window
    assert result.max_uavs == 2
    exact = capacity_under_pd_bisect(replace(query, surrogate_mode="exact"))
    assert not exact.surrogate_out_of_window
    assert exact.max_uavs == 2
    with pytest.raises(SurrogateDomainError):
        log_joint_pd_surrogate(2.0 * mean_snr_at(query, 1), q_inv(0.01), 1, "fixed")


@pytest.mark.parametrize("mode", ["expanded", "fixed"])
def test_surrogate_solve_starts_at_its_own_crossing(mode, monkeypatch) -> None:
    # The seed is the surrogate's exact crossing, so the search needs at
    # most two evaluations.
    calls = 0
    real = capacity.log_joint_pd_surrogate

    def counting(*args: object) -> float:
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(capacity, "log_joint_pd_surrogate", counting)
    result = capacity_under_pd_bisect(_query(surrogate_mode=mode))
    assert not result.surrogate_out_of_window
    assert 1 <= calls <= 2


def _search_from(crossing: int, guess: int) -> None:
    # From a guess far below or above the answer the walk doubles its step
    # to a bracket and bisects it: the answer is the crossing (the last
    # count that holds, or 0), read in at most two evaluations per bit of
    # the distance, plus two, and never one count twice.
    reads = []

    def predicate(value: int) -> bool:
        reads.append(value)
        return value <= crossing

    assert capacity._largest(predicate, guess) == crossing
    assert len(reads) == len(set(reads))
    assert len(reads) <= 2 * abs(guess - crossing).bit_length() + 2


@pytest.mark.parametrize("crossing", [0, 700_000])
@pytest.mark.parametrize("guess", [0, 1, 2_100_000, 10**12])
def test_largest_evaluation_budget(crossing: int, guess: int) -> None:
    _search_from(crossing, guess)


@settings(max_examples=300, deadline=None)
@given(crossing=st.integers(0, 2**62), guess=st.integers(0, 2**62))
# A power-of-two distance: 51 reads, one more than 2 * log2(distance) + 2.
@example(crossing=16_777_217, guess=1)
@example(crossing=2**62, guess=0)
def test_largest_finds_any_crossing_within_its_budget(crossing: int, guess: int) -> None:
    _search_from(crossing, guess)


@settings(max_examples=25, deadline=None)
@given(
    tx_power_dbm=st.floats(40.0, 58.0),
    radius_km=st.floats(0.6, 2.0),
    pd_threshold=st.floats(0.85, 0.99),
    total_symbols=st.integers(1, 42),
    surrogate_mode=st.sampled_from(SURROGATE_MODES),
)
# Seeds above the answer, so the search walks down, in each mode.
@example(48.06345228584027, 0.7126241459735495, 0.8948076446541564, 33, "exact")
@example(55.74167769744482, 0.6441636693714105, 0.9720363469291936, 37, "expanded")
@example(57.963489359550245, 1.285001493637867, 0.8922025508968339, 19, "fixed")
# Out of the window at one UAV: both surrogates redo the solve exactly.
@example(43.04964290975442, 1.5416967890022735, 0.9853168464260457, 4, "expanded")
@example(43.04964290975442, 1.5416967890022735, 0.9853168464260457, 4, "fixed")
def test_bisect_agrees_with_scan(
    tx_power_dbm: float, radius_km: float, pd_threshold: float, total_symbols: int,
    surrogate_mode: str,
) -> None:
    query = _query(
        link=replace(LINK, tx_power_dbm=tx_power_dbm),
        region=SensingRegion(radius_km, 10.0, math.pi / 5.0),
        spec=replace(SPEC, pd_threshold=pd_threshold),
        total_symbols=total_symbols,
    )
    solves = [
        lambda: capacity_under_pd_bisect(query),
        lambda: capacity_under_pd_scan(query),
        lambda: capacity_under_pd_bisect(replace(query, surrogate_mode=surrogate_mode)),
    ]
    answers = []
    with pytest.MonkeyPatch.context() as patch:
        probes = _record_probes(patch, query)
        for solve in solves:
            probes.clear()
            answers.append(solve())
            # No solve evaluates an objective twice at one count.
            assert len(probes) == len(set(probes)), probes
    assert answers[0].max_uavs == answers[1].max_uavs
    if answers[2].surrogate_out_of_window:
        assert answers[2].max_uavs == answers[0].max_uavs


def test_scan_and_search_share_one_floor() -> None:
    # At this floor the joint PD at 33 UAVs sits within the relative slack
    # below pd_threshold: the search counts 33 as meeting it, and a scan that
    # compared against the bare ln(pd_threshold) stopped at 32.
    query = _query(spec=replace(SPEC, pd_threshold=0.9607824058059576))
    assert capacity_under_pd_bisect(query).max_uavs == 33
    assert capacity_under_pd_scan(query).max_uavs == 33


def test_capacities_scale_apart_as_the_budget_grows() -> None:
    # The SNR capacity is rho / (2 gamma), linear in the budget; the PD
    # capacity L tends to rho / (2 ln L), since Q^-1 of the miss budget
    # -ln P / L grows as sqrt(2 ln L). At the reference 2 L ln L / rho reads
    # 0.32, 0.51, 0.60, 0.65 and 0.68, and PD / SNR 1.83, 1.04, 0.73, 0.56
    # and 0.46, at 1, 1e3, 1e6, 1e9 and 1e12 frames.
    approach, pd_over_snr = [], []
    for frames in (1, 10**3, 10**6, 10**9, 10**12):
        query = _query(total_symbols=REFERENCE.symbols_per_frame * frames)
        rho = 2.0 * mean_snr_at(query, 1)
        pd = capacity_under_pd_bisect(query).max_uavs
        approach.append(2.0 * pd * math.log(pd) / rho)
        pd_over_snr.append(pd / capacity_under_snr(query).max_uavs)
    assert all(a < b for a, b in zip(approach, approach[1:]))
    assert approach[-1] < 1.0
    assert pd_over_snr[1] > 1.0 > pd_over_snr[2]


def test_capacity_monotone_in_threshold() -> None:
    capacities = [
        capacity_under_pd_bisect(_query(spec=replace(SPEC, pd_threshold=t))).max_uavs
        for t in (0.9, 0.95, 0.99)
    ]
    assert capacities[0] >= capacities[1] >= capacities[2]
