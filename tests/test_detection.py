import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

from uavcap.config import parse_config
from uavcap.detection import (
    SURROGATE_A,
    SURROGATE_B,
    SURROGATE_C,
    SurrogateDomainError,
    joint_pd,
    log_joint_pd_surrogate,
    log_pd_single,
    lrt_threshold,
    pd_single,
    q,
    q_exp_approx,
    q_inv,
    surrogate_miss_inv,
)

# Frozen oracle values (pfa = 0.05 operating point).
XI_AT_PFA_005 = 1.6448536269514729
LRT_THRESHOLD_SNR2_PFA005 = 1.2897072539029457   # sqrt(4) * xi - 2
PD_SINGLE_SNR10_PFA005 = 0.9976527540587823
JOINT_PD_099_POW10 = 0.9043820750088044
Q_APPROX_MAX_ABS_ERROR = 0.0016237673772477312   # attained at x = 0
# Magnitude ratio fixed/expanded surrogate: exp(a xi^2 - 0.3842 xi) at pfa 0.05.
FIXED_OVER_EXPANDED = 1.5030810451742427


def _bisect_q_inv(p: float) -> float:
    # Independent route: bisection on q itself.
    lo, hi = -40.0, 40.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if q(mid) > p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_q_matches_independent_tail_oracle() -> None:
    for x in np.linspace(-8.0, 8.0, 161):
        assert q(float(x)) == pytest.approx(
            float(stats.norm.sf(x)), rel=1e-13, abs=1e-300
        )


@settings(max_examples=100, deadline=None)
@given(x=st.floats(-8.0, 8.0))
def test_q_reflection(x: float) -> None:
    assert q(x) + q(-x) == pytest.approx(1.0, abs=1e-12)


def test_q_inv_reference_and_oracle() -> None:
    assert q_inv(0.05) == pytest.approx(XI_AT_PFA_005, rel=1e-14)
    for p in (1e-6, 0.01, 0.05, 0.3, 0.5, 0.9, 0.999):
        assert q_inv(p) == pytest.approx(_bisect_q_inv(p), abs=1e-10)


def test_q_inv_matches_ndtri() -> None:
    # scipy's ndtri (Cephes) computes the same quantile independently.
    probs = np.concatenate(
        [np.geomspace(1e-300, 0.5, 600, endpoint=False), np.linspace(0.5, 0.99, 200)]
    )
    for p in probs:
        expected = -float(special.ndtri(p))
        assert abs(q_inv(float(p)) - expected) <= 1e-15 * abs(expected), p


@settings(max_examples=100, deadline=None)
@given(p=st.floats(1e-8, 1.0 - 1e-8))
def test_q_inv_round_trip(p: float) -> None:
    assert q(q_inv(p)) == pytest.approx(p, rel=1e-9)


def test_q_inv_domain() -> None:
    for bad in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(ValueError):
            q_inv(bad)


def test_lrt_threshold_reference() -> None:
    assert lrt_threshold(2.0, 0.05) == pytest.approx(
        LRT_THRESHOLD_SNR2_PFA005, rel=1e-14
    )
    with pytest.raises(ValueError, match="snr"):
        lrt_threshold(0.0, 0.05)


def test_lrt_threshold_consistency_with_pd() -> None:
    # The threshold achieving pfa yields PD = Q(xi - sqrt(2 snr)) under the
    # Gaussian LLR statistics: check through the defining tail expressions.
    snr, pfa = 4.0, 0.1
    gamma = lrt_threshold(snr, pfa)
    implied_pfa = q(gamma / math.sqrt(2.0 * snr) + math.sqrt(snr / 2.0))
    implied_pd = q((gamma + snr) / math.sqrt(2.0 * snr) - math.sqrt(2.0 * snr))
    assert implied_pfa == pytest.approx(pfa, rel=1e-12)
    assert implied_pd == pytest.approx(pd_single(snr, pfa), rel=1e-12)


def test_pd_single_reference_points() -> None:
    assert pd_single(10.0, 0.05) == pytest.approx(PD_SINGLE_SNR10_PFA005, rel=1e-12)
    # Zero SNR degenerates to the false-alarm rate.
    assert pd_single(0.0, 0.05) == pytest.approx(0.05, rel=1e-12)
    with pytest.raises(ValueError, match="snr"):
        pd_single(-1.0, 0.05)


def test_pd_single_monotone_in_snr() -> None:
    values = [pd_single(s, 0.05) for s in np.linspace(0.0, 40.0, 400)]
    assert all(b >= a for a, b in zip(values, values[1:]))


def _log_pd_through_q(snr: float, xi: float) -> float:
    # log_pd_single's definition, written through q.
    margin = math.sqrt(2.0 * snr) - xi
    if margin >= 0.0:
        return math.log1p(-q(margin))
    pd = q(-margin)
    return math.log(pd) if pd > 0.0 else -math.inf


def test_log_pd_single_is_bit_identical_to_its_q_definition() -> None:
    # log_pd_single inlines Q; this pins it to q bit for bit. Margins below
    # -xi need xi past any pfa's Q^-1 (xi = 40 reaches Q's underflow).
    cases = []
    for xi in [q_inv(0.01), q_inv(0.05), q_inv(0.2), 40.0]:
        cases.append((xi * xi / 2.0, xi))
        for margin in np.linspace(-40.0, 40.0, 8001):
            root = margin + xi
            if root >= 0.0:
                cases.append((root * root / 2.0, xi))
    margins = [math.sqrt(2.0 * snr) - xi for snr, xi in cases]
    assert 0.0 in margins
    assert min(margins) == -40.0
    assert max(margins) > 39.99
    values = [log_pd_single(snr, xi) for snr, xi in cases]
    expected = [_log_pd_through_q(snr, xi) for snr, xi in cases]
    assert [v.hex() for v in values] == [v.hex() for v in expected]
    assert -math.inf in values


def test_joint_pd_reference_and_edges() -> None:
    snr = 10.0
    single = pd_single(snr, 0.05)
    assert joint_pd(snr, 1, 0.05) == single
    assert joint_pd(snr, 7, 0.05) == pytest.approx(single**7, rel=1e-13)
    assert 0.99**10 == pytest.approx(JOINT_PD_099_POW10, rel=1e-14)
    assert joint_pd(snr, 10, 0.05) <= single
    with pytest.raises(ValueError, match="num_uavs"):
        joint_pd(snr, 0, 0.05)


def test_spec_and_coefficients_validation() -> None:
    spec = parse_config("").detection()
    with pytest.raises(ValueError, match="pfa"):
        replace(spec, pfa=0.5)
    with pytest.raises(ValueError, match="pd_threshold"):
        replace(spec, pd_threshold=1.0)
    assert (SURROGATE_A, SURROGATE_B, SURROGATE_C) == (0.3842, 0.7640, 0.6964)


def test_q_exp_approx_accuracy_grid() -> None:
    grid = np.linspace(0.0, 4.0, 4001)
    errors = [abs(q_exp_approx(float(x)) - q(float(x))) for x in grid]
    worst = max(errors)
    assert worst == pytest.approx(Q_APPROX_MAX_ABS_ERROR, rel=1e-9)
    assert worst < 5e-3
    # The worst point is the left edge of the fit window.
    assert errors[0] == worst


def test_q_exp_approx_reflection_is_exact() -> None:
    for x in (0.3, 1.7, 3.9):
        assert q_exp_approx(-x) == 1.0 - q_exp_approx(x)


def test_q_exp_approx_domain() -> None:
    q_exp_approx(4.0)
    q_exp_approx(-4.0)
    for bad in (4.0001, -4.0001, 100.0):
        with pytest.raises(SurrogateDomainError):
            q_exp_approx(bad)


def test_surrogate_matches_pointwise_tail_approximation() -> None:
    # The expanded exponent is the symbolic expansion of -a x^2 + b x - c at
    # x = xi - sqrt(rho/L), so the value is -L * q_exp_approx(-x), which the
    # reflection writes as -L * (1 - q_exp_approx(x)).
    xi = q_inv(0.05)
    for rho, num in [(30.0, 2), (100.0, 5), (722.0, 33)]:
        x = xi - math.sqrt(rho / num)
        expected = -num * (1.0 - q_exp_approx(x))
        assert log_joint_pd_surrogate(rho, xi, num, "expanded") == pytest.approx(
            expected, rel=1e-12
        )


def test_surrogate_fixed_to_expanded_ratio_is_constant() -> None:
    xi = q_inv(0.05)
    for rho, num in [(40.0, 3), (200.0, 11), (722.0, 30)]:
        fixed = log_joint_pd_surrogate(rho, xi, num, "fixed")
        expanded = log_joint_pd_surrogate(rho, xi, num, "expanded")
        assert fixed / expanded == pytest.approx(FIXED_OVER_EXPANDED, rel=1e-12)


def test_surrogate_relative_error_in_operating_window() -> None:
    # Measured bound: on pd_single in [0.9, 0.99] the expanded surrogate
    # tracks the exact L * ln Q within 6% (it degrades deeper in the tail,
    # up to ~58% by pd ~ Q(-4), which is why capacity agreement is the
    # criterion that matters downstream).
    xi = q_inv(0.05)
    worst = 0.0
    for target in np.linspace(0.9, 0.99, 200):
        x = q_inv(float(target))  # negative: pd = Q(x)
        rho = (xi - x) ** 2
        exact = math.log(q(x))
        approx = log_joint_pd_surrogate(rho, xi, 1, "expanded")
        worst = max(worst, abs(approx - exact) / abs(exact))
    assert worst < 0.06


def test_surrogate_monotone_decreasing_in_count() -> None:
    # Counts keeping x = xi - sqrt(rho/L) inside the validity window.
    xi = q_inv(0.05)
    rho = 722.0
    values = [
        log_joint_pd_surrogate(rho, xi, num, "expanded") for num in range(23, 260)
    ]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_surrogate_domain_and_argument_errors() -> None:
    xi = q_inv(0.05)
    # L large enough that sqrt(rho/L) < xi pushes x above 0.
    with pytest.raises(SurrogateDomainError):
        log_joint_pd_surrogate(10.0, xi, 1000, "expanded")
    # L = 1 with huge rho pushes x below -4.
    with pytest.raises(SurrogateDomainError):
        log_joint_pd_surrogate(10_000.0, xi, 1, "expanded")
    with pytest.raises(ValueError, match="rho"):
        log_joint_pd_surrogate(0.0, xi, 1, "expanded")
    with pytest.raises(ValueError, match="num_uavs"):
        log_joint_pd_surrogate(10.0, xi, 0, "expanded")
    with pytest.raises(ValueError, match="mode"):
        log_joint_pd_surrogate(30.0, xi, 2, "rederived")


@pytest.mark.parametrize("mode", ["expanded", "fixed"])
@pytest.mark.parametrize("pfa", [1e-6, 0.01, 0.05, 0.2, 0.45])
def test_surrogate_miss_inverse_solves_the_miss_term(mode: str, pfa: float) -> None:
    # At L = 1 and rho = (xi + |x|)^2 the surrogate objective is minus the
    # miss term at |x|, so evaluating it at the inverse gives the miss back.
    xi = q_inv(pfa)
    for miss in (1e-30, 1e-9, 1e-4, 0.01, 0.1, 0.3, 0.49):
        depth = surrogate_miss_inv(xi, mode)(miss)
        if 0.0 <= depth <= 4.0:
            rho = (xi + depth) ** 2
            assert -log_joint_pd_surrogate(rho, xi, 1, mode) == pytest.approx(
                miss, rel=1e-12
            )
    if mode == "expanded":
        # The expanded miss term is q_exp_approx itself.
        assert q_exp_approx(surrogate_miss_inv(xi, mode)(1e-3)) == pytest.approx(
            1e-3, rel=1e-12
        )
