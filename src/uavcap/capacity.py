"""Sensing capacity: the largest UAV count meeting an SNR or joint-PD floor.

A fixed budget of total_symbols sensing symbols is split evenly across L
targets, so the mean per-target SNR scales as 1/L. Under the SNR floor the
capacity is a closed-form floor division. Under the joint-PD floor the
objective L * ln Q(xi - sqrt(rho/L)) is monotone decreasing in L, and the
capacity is found either by a search seeded from a closed-form estimate
(on the exact objective or on the surrogate alone) or by a brute-force
linear scan of the exact objective; the two must agree, which the
validation suite checks on random scenarios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

from .detection import (
    DetectionSpec,
    SurrogateDomainError,
    SURROGATE_MODES,
    joint_pd,
    log_joint_pd_surrogate,
    log_pd_single,
    q_inv,
    surrogate_miss_inv,
)
from .geometry import SensingRegion, check_density_mode
from .link import RadarLinkParams, db_to_linear, mean_multi_uav_snr

# Relative slack for post-hoc boundary checks on continuous quantities.
_REL_SLACK = 1e-9


# Raised by nothing: kept only because perfbench/workloads.py reads it at import.
class CapacityBracketError(RuntimeError):
    """No solver raises this; the joint-PD search has no count cap."""


@dataclass(frozen=True, slots=True)
class CapacityQuery:
    """One capacity question: scenario, constraints, symbol budget, modes."""

    link: RadarLinkParams
    region: SensingRegion
    spec: DetectionSpec
    total_symbols: int
    snr_mode: str
    surrogate_mode: str

    def __post_init__(self) -> None:
        if self.total_symbols < 1:
            raise ValueError(
                f"total_symbols must be >= 1, got {self.total_symbols}"
            )
        check_density_mode(self.snr_mode, "snr_mode")
        if self.surrogate_mode not in SURROGATE_MODES:
            raise ValueError(
                f"surrogate_mode must be one of {SURROGATE_MODES}, got {self.surrogate_mode!r}"
            )


@dataclass(frozen=True, slots=True)
class CapacityResult:
    """Solver outcome.

    max_uavs is the largest count satisfying the solver's constraint (0 when
    even one target fails it; achieved_* then report the L = 1 values as
    diagnostics). achieved_snr is the linear mean per-target SNR and
    achieved_joint_pd the exact joint detection probability at
    max(max_uavs, 1). cap_reached marks a linear scan that hit its
    iteration cap, in which case max_uavs is a lower bound only.
    surrogate_out_of_window marks a surrogate-mode solve whose surrogate
    left its validity window: max_uavs is then the exact-mode capacity.
    """

    max_uavs: int
    achieved_snr: float
    achieved_joint_pd: float
    cap_reached: bool = False
    surrogate_out_of_window: bool = False


def mean_snr_at(query: CapacityQuery, num_uavs: int) -> float:
    """Mean per-target SNR (linear) when the budget is split across num_uavs."""
    return mean_multi_uav_snr(
        query.link, query.region, query.total_symbols, num_uavs, query.snr_mode
    )


def one_uav_link(query: CapacityQuery) -> RadarLinkParams:
    """The query's link with its whole budget on one target: N = total symbols, K = 1."""
    return replace(query.link, cpi_symbols=query.total_symbols, uavs_per_symbol=1)


def _make_result(
    query: CapacityQuery,
    mean_snr_one: float,
    max_uavs: int,
    satisfied: Callable[[int], bool],
    cap_reached: bool = False,
) -> CapacityResult:
    at = max(max_uavs, 1)
    result = CapacityResult(
        max_uavs=max_uavs,
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
    # and by up to half a float spacing above.
    max_uavs = _largest(satisfied, math.floor(mean_one / floor))
    return _make_result(query, mean_one, max_uavs, satisfied)


def _largest(holds: Callable[[int], bool], guess: int) -> int:
    """Largest count >= 1 satisfying a monotone predicate, or 0 if none.

    Walks from guess >= 0 in doubling steps, down while the low end fails
    and up while the high end holds, to a bracket (low holds or is 0, high
    fails), then bisects it. The search has no cap: it ends wherever the
    predicate does, and costs O(log |answer - guess|) evaluations.
    """
    low, high, step = guess, guess + 1, 1
    while low >= 1 and not holds(low):
        low, high, step = max(low - step, 0), low, 2 * step
    while holds(high):
        low, high, step = high, high + step, 2 * step
    return max_satisfying(holds, low, high)


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


def _pd_guess(
    mean_one: float, xi: float, ln_floor: float, tail_inv: Callable[[float], float] = q_inv
) -> int:
    """Estimate of the count where L * ln PD of one target crosses ln_floor.

    (1 - miss)^L ~ exp(-L miss) puts the crossing where each target's miss
    probability Q(sqrt(rho/L) - xi) equals -ln_floor / L, that is at
    L = rho / (xi + Q^-1(-ln_floor / L))^2 with rho = 2 * mean_one. Four
    fixed-point steps from L = mean_one land within a UAV or so in the
    validate domain, and within about 1e-5 relative at 1e10 UAVs. A miss
    budget outside (0, 1/2) stops them (the capacity is then a few UAVs,
    or none), so tail_inv, the inverse of the miss term, is only called
    where it is finite. The surrogate objective is exactly -L * miss, so
    with surrogate_miss_inv as tail_inv the fixed point is the surrogate's
    own crossing. An infinite mean_one raises OverflowError.
    """
    guess = mean_one
    for _ in range(4):
        miss = -ln_floor / guess if guess > 0.0 else 1.0
        if not 0.0 < miss < 0.5:
            break
        guess = 2.0 * (mean_one / (xi + tail_inv(miss)) ** 2)
    return math.floor(guess)


def capacity_under_pd_bisect(query: CapacityQuery) -> CapacityResult:
    """Largest L with ln(joint PD) >= ln(pd_threshold), by a seeded search.

    The exact objective is L * ln PD of one target, in the log domain; a
    surrogate mode searches on the surrogate alone, and if that leaves its
    window (in practice at the answer or the next count) the exact search
    runs instead, flagged surrogate_out_of_window. The search starts at
    _pd_guess and needs no cap: with pfa > 0, L * ln PD falls without bound
    as L grows, so a violating count exists.
    """
    mean_one = mean_snr_at(query, 1)
    xi = q_inv(query.spec.pfa)
    ln_floor = math.log(query.spec.pd_threshold)
    floor = ln_floor - _REL_SLACK * abs(ln_floor)
    mode = query.surrogate_mode
    if mode != "exact":
        rho = 2.0 * mean_one

        def surrogate_holds(num_uavs: int) -> bool:
            return log_joint_pd_surrogate(rho, xi, num_uavs, mode) >= floor

        guess = _pd_guess(mean_one, xi, floor, surrogate_miss_inv(xi, mode))
        try:
            best = _largest(surrogate_holds, guess)
            return _make_result(query, mean_one, best, surrogate_holds)
        except SurrogateDomainError:
            pass

    def holds(num_uavs: int) -> bool:
        return num_uavs * log_pd_single(mean_one / num_uavs, xi) >= floor

    best = _largest(holds, _pd_guess(mean_one, xi, floor))
    result = _make_result(query, mean_one, best, holds)
    return result if mode == "exact" else replace(result, surrogate_out_of_window=True)


def capacity_under_pd_scan(
    query: CapacityQuery, cap: int = 10**6
) -> CapacityResult:
    """Largest L with exact joint PD >= pd_threshold, by linear scan.

    Ignores the surrogate mode: this is the brute-force route used to
    validate the seeded search. Stops at the iteration cap and marks the
    result cap_reached (max_uavs is then only a lower bound).
    """
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    mean_one = mean_snr_at(query, 1)
    ln_floor = math.log(query.spec.pd_threshold)
    xi = q_inv(query.spec.pfa)

    def holds(num_uavs: int) -> bool:
        return num_uavs * log_pd_single(mean_one / num_uavs, xi) >= ln_floor

    # The objective is written out in the loop, not called through holds,
    # to save a Python frame per count; holds serves the post-hoc check.
    for num in range(1, cap + 1):
        if not num * log_pd_single(mean_one / num, xi) >= ln_floor:
            return _make_result(query, mean_one, num - 1, holds)
    return _make_result(query, mean_one, cap, holds, cap_reached=True)
