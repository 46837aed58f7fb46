"""Sensing capacity: the largest UAV count meeting an SNR or joint-PD floor.

A fixed budget of total_symbols sensing symbols is split evenly across L
targets, so the mean per-target SNR scales as 1/L. Under the SNR floor the
capacity is a closed-form floor division. Under the joint-PD floor the
objective L * ln Q(xi - sqrt(rho/L)) is monotone decreasing in L, and the
capacity is found either by binary search on that objective (exact or
surrogate form) or by a brute-force linear scan of the exact joint PD;
the two must agree, which the validation suite checks on random scenarios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .detection import (
    DetectionSpec,
    SurrogateDomainError,
    SURROGATE_MODES,
    joint_pd,
    log_joint_pd_surrogate,
    pd_single,
    q_inv,
)
from .geometry import SensingRegion
from .link import RadarLinkParams, SNR_MODES, db_to_linear, mean_multi_uav_snr

# Relative slack for post-hoc boundary checks on continuous quantities.
_REL_SLACK = 1e-9


class CapacityBracketError(RuntimeError):
    """Raised when no finite UAV count violates the constraint below the cap."""


@dataclass(frozen=True)
class CapacityQuery:
    """One capacity question: scenario, constraints, symbol budget, modes."""

    link: RadarLinkParams
    region: SensingRegion
    spec: DetectionSpec
    total_symbols: int
    snr_mode: str = "normalized"
    surrogate_mode: str = "exact"

    def __post_init__(self) -> None:
        if self.total_symbols < 1:
            raise ValueError(
                f"total_symbols must be >= 1, got {self.total_symbols}"
            )
        if self.snr_mode not in SNR_MODES:
            raise ValueError(f"snr_mode must be one of {SNR_MODES}, got {self.snr_mode!r}")
        if self.surrogate_mode not in SURROGATE_MODES:
            raise ValueError(
                f"surrogate_mode must be one of {SURROGATE_MODES}, got {self.surrogate_mode!r}"
            )


@dataclass(frozen=True)
class CapacityResult:
    """Solver outcome.

    max_uavs is the largest count satisfying the binding constraint (0 when
    even one target fails it; achieved_* then report the L = 1 values as
    diagnostics). achieved_snr is the linear mean per-target SNR and
    achieved_joint_pd the exact joint detection probability at
    max(max_uavs, 1). cap_reached marks a linear scan that hit its
    iteration cap, in which case max_uavs is a lower bound only.
    """

    max_uavs: int
    binding_constraint: str
    achieved_snr: float
    achieved_joint_pd: float
    cap_reached: bool = False


def mean_snr_at(query: CapacityQuery, num_uavs: int) -> float:
    """Mean per-target SNR (linear) when the budget is split across num_uavs."""
    return mean_multi_uav_snr(
        query.link, query.region, query.total_symbols, num_uavs, query.snr_mode
    )


def snr_budget(query: CapacityQuery) -> float:
    """rho = 2 * L * SNR_L, invariant under the symbol re-split."""
    return 2.0 * mean_snr_at(query, 1)


def _log_joint_pd_objective(
    query: CapacityQuery, mean_snr_one: float, xi: float
) -> Callable[[int], float]:
    """Objective L -> ln(joint PD at L), per the query's surrogate mode.

    Surrogate modes fall back to the exact objective outside the surrogate
    validity window (xi - sqrt(rho/L) must lie in [-4, 0]).
    """
    pfa = query.spec.pfa
    rho = 2.0 * mean_snr_one

    def objective(num_uavs: int) -> float:
        if query.surrogate_mode != "exact":
            try:
                return log_joint_pd_surrogate(
                    rho, xi, num_uavs, query.surrogate_mode
                )
            except SurrogateDomainError:
                pass
        return num_uavs * math.log(pd_single(mean_snr_one / num_uavs, pfa))

    return objective


def _make_result(
    query: CapacityQuery,
    mean_snr_one: float,
    max_uavs: int,
    binding: str,
    satisfied: Callable[[int], bool],
    cap_reached: bool = False,
) -> CapacityResult:
    at = max(max_uavs, 1)
    result = CapacityResult(
        max_uavs=max_uavs,
        binding_constraint=binding,
        achieved_snr=mean_snr_one / at,
        achieved_joint_pd=joint_pd(mean_snr_one / at, at, query.spec.pfa),
        cap_reached=cap_reached,
    )
    # Embedded post-hoc check: constraint holds at max_uavs, fails at
    # max_uavs + 1 (skipped past a scan cap, where no violation was seen).
    if max_uavs >= 1 and not satisfied(max_uavs):
        raise RuntimeError(f"internal error: constraint violated at {max_uavs}")
    if not cap_reached and satisfied(max_uavs + 1):
        raise RuntimeError(
            f"internal error: constraint still satisfied at {max_uavs + 1}"
        )
    return result


def capacity_under_snr(query: CapacityQuery) -> CapacityResult:
    """Largest L with mean per-target SNR >= the dB threshold: a closed form.

    SNR_L = rho_1 / L, so max_uavs = floor(rho_1 / threshold), up to the
    relative slack the predicate allows (a budget exactly equal to the
    threshold yields 1, not 0). The answer is taken from the predicate
    itself, so the post-hoc check agrees with it at any budget.
    """
    mean_one = mean_snr_at(query, 1)
    floor = db_to_linear(query.spec.snr_threshold_db) * (1.0 - _REL_SLACK)

    def satisfied(num_uavs: int) -> bool:
        return mean_one / num_uavs >= floor

    # The float floor of the bound is off by at most one below 2**53 UAVs
    # and by up to half a float spacing above, so bracket it with doubling
    # steps (low satisfied or 0, high violated) and bisect.
    guess = math.floor(mean_one / floor)
    low, high, step = guess, guess + 1, 1
    while low >= 1 and not satisfied(low):
        low, high, step = max(low - step, 0), low, 2 * step
    while satisfied(high):
        low, high, step = high, high + step, 2 * step
    max_uavs = max_satisfying(satisfied, low, high)
    return _make_result(query, mean_one, max_uavs, "snr", satisfied)


def max_satisfying(
    predicate: Callable[[int], bool], low: int, high: int
) -> int:
    """Largest integer in [low, high) satisfying a monotone predicate.

    Trusts predicate(low) == True and predicate(high) == False; performs
    pure bisection, ceil(log2(high - low)) predicate evaluations, one per
    halving.
    """
    if not low < high:
        raise ValueError(f"need low < high, got [{low}, {high})")
    while high - low > 1:
        mid = (low + high) // 2
        if predicate(mid):
            low = mid
        else:
            high = mid
    return low


def capacity_under_pd_bisect(
    query: CapacityQuery,
    bounds: tuple[int, int] | None = None,
    max_bound: int = 10**9,
) -> CapacityResult:
    """Largest L with ln(joint PD) >= ln(pd_threshold), by binary search.

    The objective is evaluated per the query's surrogate mode ("exact"
    uses L * ln pd_single directly). When bounds are given they should
    bracket the crossing (objective >= ln threshold at bounds[0], < at
    bounds[1]); an invalid bracket falls back to geometric expansion from
    [1, 2], capped at max_bound (CapacityBracketError past the cap, which
    only an unsatisfiable-by-no-L constraint can trigger).
    """
    mean_one = mean_snr_at(query, 1)
    xi = q_inv(query.spec.pfa)
    ln_floor = math.log(query.spec.pd_threshold)
    objective = _log_joint_pd_objective(query, mean_one, xi)
    slack = _REL_SLACK * abs(ln_floor)

    def holds(num_uavs: int) -> bool:
        return objective(num_uavs) >= ln_floor - slack

    if not holds(1):
        return _make_result(query, mean_one, 0, "pd", holds)

    best: int | None = None
    if bounds is not None:
        low, high = bounds
        if low < 1 or high <= low:
            raise ValueError(f"bounds must satisfy 1 <= low < high, got {bounds}")
        # The low end is trusted (no evaluation); the high end is verified
        # so a non-bracketing pair falls through to auto-expansion.
        if not holds(high):
            candidate = max_satisfying(holds, low, high)
            # A bad trusted low end surfaces here; re-solve from scratch.
            if holds(candidate) and not holds(candidate + 1):
                best = candidate

    if best is None:
        low, high = 1, 2
        while holds(high):
            low, high = high, high * 2
            if high > max_bound:
                raise CapacityBracketError(
                    f"joint-PD constraint not violated by any count up to {max_bound}"
                )
        best = max_satisfying(holds, low, high)

    return _make_result(query, mean_one, best, "pd", holds)


def capacity_under_pd_scan(
    query: CapacityQuery, cap: int = 10**6
) -> CapacityResult:
    """Largest L with exact joint PD >= pd_threshold, by linear scan.

    Ignores the surrogate mode: this is the independent brute-force route
    used to validate the binary search. Stops at the iteration cap and
    marks the result cap_reached (max_uavs is then only a lower bound).
    """
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    mean_one = mean_snr_at(query, 1)
    floor = query.spec.pd_threshold
    pfa = query.spec.pfa

    def holds(num_uavs: int) -> bool:
        return joint_pd(mean_one / num_uavs, num_uavs, pfa) >= floor

    num = 1
    while num <= cap and holds(num):
        num += 1
    if num > cap:
        return _make_result(query, mean_one, cap, "pd", holds, cap_reached=True)
    return _make_result(query, mean_one, num - 1, "pd", holds)
