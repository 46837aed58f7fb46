import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from uavcap.capacity import (
    CapacityQuery,
    capacity_under_pd_bisect,
    capacity_under_pd_scan,
    capacity_under_snr,
    max_satisfying,
    mean_snr_at,
    snr_budget,
)
from uavcap.detection import SURROGATE_MODES, DetectionSpec, joint_pd
from uavcap.geometry import SensingRegion
from uavcap.link import RadarLinkParams, db_to_linear, linear_to_db

# Frozen capacities for the reference scenario at 14 total symbols.
SNR_CAPACITY_NORMALIZED = 18
SNR_CAPACITY_UNNORMALIZED = 10
PD_CAPACITY_NORMALIZED = 33
PD_CAPACITY_UNNORMALIZED = 21
SNR_THRESHOLD_LINEAR = 19.952623149688797
RHO_NORMALIZED = 722.0448042763454


def _query(**overrides: object) -> CapacityQuery:
    base = dict(
        link=RadarLinkParams(),
        region=SensingRegion(1.0, 10.0, math.pi / 5.0),
        spec=DetectionSpec(),
        total_symbols=14,
    )
    base.update(overrides)
    return CapacityQuery(**base)  # type: ignore[arg-type]


def test_query_validation() -> None:
    with pytest.raises(ValueError, match="total_symbols"):
        _query(total_symbols=0)
    with pytest.raises(ValueError, match="snr_mode"):
        _query(snr_mode="literal")
    with pytest.raises(ValueError, match="surrogate_mode"):
        _query(surrogate_mode="rederived")


def test_snr_budget_reference() -> None:
    assert snr_budget(_query()) == pytest.approx(RHO_NORMALIZED, rel=1e-12)
    assert db_to_linear(13.0) == pytest.approx(SNR_THRESHOLD_LINEAR, rel=1e-14)


def test_capacity_under_snr_reference_values() -> None:
    result = capacity_under_snr(_query())
    assert result.max_uavs == SNR_CAPACITY_NORMALIZED
    assert result.binding_constraint == "snr"
    assert linear_to_db(result.achieved_snr) >= 13.0
    literal = capacity_under_snr(_query(snr_mode="unnormalized"))
    assert literal.max_uavs == SNR_CAPACITY_UNNORMALIZED


def test_capacity_under_snr_boundary_exact() -> None:
    # A budget exactly at the threshold supports exactly one target.
    query = _query()
    budget = mean_snr_at(query, 1)
    spec = DetectionSpec(snr_threshold_db=linear_to_db(budget))
    result = capacity_under_snr(_query(spec=spec))
    assert result.max_uavs == 1


def test_capacity_under_snr_zero_when_unreachable() -> None:
    weak = replace(RadarLinkParams(), tx_power_dbm=-30.0)
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
    # Budgets of about 1e9 to 1e12 UAVs, where a ratio within the predicate's
    # 1e-9 slack below an integer used to fail the post-hoc check; the last
    # budgets lie past 2**53 UAVs, where floats no longer resolve one UAV.
    threshold = db_to_linear(DetectionSpec().snr_threshold_db)
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
        assert fast.binding_constraint == "pd"
        assert fast.achieved_joint_pd >= 0.95
        # One more target would break the floor.
        over = joint_pd(
            mean_snr_at(_query(snr_mode=mode), expected + 1), expected + 1, 0.05
        )
        assert over < 0.95


def test_pd_capacity_zero_when_even_one_fails() -> None:
    weak = replace(RadarLinkParams(), tx_power_dbm=-30.0)
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
    spec = DetectionSpec(pfa=pfa, pd_threshold=pd_threshold)
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
    weak = replace(RadarLinkParams(), tx_power_dbm=-400.0)
    query = _query(link=weak, spec=DetectionSpec(pfa=1e-300))
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
def test_pd_capacity_solves_across_the_accepted_domain(
    pfa: float, pd_threshold: float, tx_power_dbm: float, frames: int,
    surrogate_mode: str,
) -> None:
    query = _query(
        link=replace(RadarLinkParams(), tx_power_dbm=tx_power_dbm),
        spec=DetectionSpec(pfa=pfa, pd_threshold=pd_threshold),
        total_symbols=14 * frames,
        surrogate_mode=surrogate_mode,
    )
    try:
        finite = math.isfinite(mean_snr_at(query, 1))
    except OverflowError:
        finite = False
    if finite:
        assert capacity_under_pd_bisect(query).max_uavs >= 0
    else:
        with pytest.raises(OverflowError):
            capacity_under_pd_bisect(query)


def test_scan_cap_reports_lower_bound() -> None:
    result = capacity_under_pd_scan(_query(), cap=5)
    assert result.cap_reached
    assert result.max_uavs == 5
    assert not capacity_under_pd_scan(_query(), cap=100).cap_reached
    with pytest.raises(ValueError, match="cap"):
        capacity_under_pd_scan(_query(), cap=0)


def test_surrogate_modes_solve_and_land_near_exact() -> None:
    exact = capacity_under_pd_bisect(_query(surrogate_mode="exact")).max_uavs
    expanded = capacity_under_pd_bisect(_query(surrogate_mode="expanded")).max_uavs
    fixed = capacity_under_pd_bisect(_query(surrogate_mode="fixed")).max_uavs
    assert abs(expanded - exact) <= 1
    # The fixed-coefficient variant inflates the per-UAV miss term by a
    # constant factor of ~1.5, so it lands at or below the exact capacity.
    assert fixed <= exact
    assert exact - fixed <= 4


def test_surrogate_solver_survives_out_of_window_points() -> None:
    # At L = 1 the surrogate domain is violated (x < -4); the solver must
    # fall back to the exact objective there and still return the exact
    # capacity for in-window crossings.
    result = capacity_under_pd_bisect(_query(surrogate_mode="expanded"))
    assert result.max_uavs >= 1


def test_max_satisfying_evaluation_budget() -> None:
    calls = 0
    crossing = 700_000

    def predicate(value: int) -> bool:
        nonlocal calls
        calls += 1
        return value <= crossing

    width = 2**20
    best = max_satisfying(predicate, 1, 1 + width)
    assert best == crossing
    assert calls <= math.ceil(math.log2(width)) + 1
    with pytest.raises(ValueError, match="low < high"):
        max_satisfying(predicate, 5, 5)


@settings(max_examples=25, deadline=None)
@given(
    tx_power_dbm=st.floats(40.0, 58.0),
    radius_km=st.floats(0.6, 2.0),
    pd_threshold=st.floats(0.85, 0.99),
    total_symbols=st.integers(1, 42),
)
def test_bisect_agrees_with_scan(
    tx_power_dbm: float, radius_km: float, pd_threshold: float, total_symbols: int
) -> None:
    query = _query(
        link=replace(RadarLinkParams(), tx_power_dbm=tx_power_dbm),
        region=SensingRegion(radius_km, 10.0, math.pi / 5.0),
        spec=DetectionSpec(pd_threshold=pd_threshold),
        total_symbols=total_symbols,
    )
    assert (
        capacity_under_pd_bisect(query).max_uavs
        == capacity_under_pd_scan(query).max_uavs
    )


def test_capacity_monotone_in_threshold() -> None:
    capacities = [
        capacity_under_pd_bisect(_query(spec=DetectionSpec(pd_threshold=t))).max_uavs
        for t in (0.9, 0.95, 0.99)
    ]
    assert capacities[0] >= capacities[1] >= capacities[2]
