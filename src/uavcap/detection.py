"""Neyman-Pearson detection of a known signal in complex Gaussian noise.

For post-integration SNR s, the log-likelihood ratio is Gaussian with mean
-s under noise-only and +s under target-present, variance 2s under both,
so with threshold gamma:

    PFA = Q(gamma / sqrt(2 s) + sqrt(s / 2))
    PD  = Q(Q^-1(PFA) - sqrt(2 s))

The Gaussian tail Q is computed via erfc. An exponential surrogate
Q(x) ~ exp(-a x^2 - b x - c) on [0, 4] (a=0.3842, b=0.7640, c=0.6964)
feeds the closed-form capacity solver; its expanded form and a fixed
historical coefficient variant are both exposed (they differ, see
log_joint_pd_surrogate). The coefficients are those of M. Lopez-Benitez
and F. Casadevall, "Versatile, accurate, and analytically tractable
approximation for the Gaussian Q-function", IEEE Trans. Commun. 59(4),
2011.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import erfc, log, log1p, sqrt
from statistics import NormalDist
from typing import Callable

_SQRT2 = math.sqrt(2.0)
# inv_cdf is Wichura's AS241 (relative error ~1e-16 down to p = 1e-300).
_STANDARD_NORMAL = NormalDist()

SURROGATE_MODES = ("exact", "expanded", "fixed")


class SurrogateDomainError(ValueError):
    """Raised when the surrogate is evaluated outside its validity regime."""


@dataclass(frozen=True, slots=True)
class DetectionSpec:
    """Operating constraints: false-alarm cap, joint-PD floor, SNR floor (dB)."""

    pfa: float
    pd_threshold: float
    snr_threshold_db: float

    def __post_init__(self) -> None:
        if not 0.0 < self.pfa < 0.5:
            raise ValueError(f"pfa must be in (0, 0.5), got {self.pfa}")
        if not 0.0 < self.pd_threshold < 1.0:
            raise ValueError(
                f"pd_threshold must be in (0, 1), got {self.pd_threshold}"
            )


# Coefficients of the exponential tail surrogate Q(x) ~ exp(-a x^2 - b x - c).
SURROGATE_A = 0.3842
SURROGATE_B = 0.7640
SURROGATE_C = 0.6964

# The surrogate is a good approximation of Q only on |x| <= 4.
SURROGATE_X_MAX = 4.0


def q(x: float) -> float:
    """Gaussian right tail Q(x) = P(N(0,1) > x), via erfc."""
    return 0.5 * math.erfc(x / _SQRT2)


def q_inv(p: float) -> float:
    """Inverse of q on (0, 1)."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p}")
    return -_STANDARD_NORMAL.inv_cdf(p)


def lrt_threshold(snr: float, pfa: float) -> float:
    """LLR threshold achieving the requested false-alarm rate.

    gamma = sqrt(2 snr) * Q^-1(pfa) - snr; snr is the post-integration
    linear SNR and must be positive.
    """
    if not snr > 0.0:
        raise ValueError(f"snr must be > 0, got {snr}")
    return math.sqrt(2.0 * snr) * q_inv(pfa) - snr


def pd_single(snr: float, pfa: float) -> float:
    """Detection probability of one target: Q(Q^-1(pfa) - sqrt(2 snr))."""
    if snr < 0.0:
        raise ValueError(f"snr must be >= 0, got {snr}")
    return q(q_inv(pfa) - math.sqrt(2.0 * snr))


def log_pd_single(snr: float, xi: float) -> float:
    """ln PD of one target, ln Q(xi - sqrt(2 snr)), where xi = Q^-1(pfa).

    While the miss probability Q(sqrt(2 snr) - xi) is below 1/2 this is
    log1p(-miss), which stays accurate as PD nears 1; the log of PD rounded
    to a double would lose accuracy in proportion to 1 / miss. Otherwise it
    is ln Q(xi - sqrt(2 snr)) itself, -inf where Q underflows.
    """
    # The solvers' inner loop: Q is inlined and its math names bound at import.
    margin = sqrt(2.0 * snr) - xi
    if margin >= 0.0:
        return log1p(-0.5 * erfc(margin / _SQRT2))
    pd = 0.5 * erfc(-margin / _SQRT2)
    return log(pd) if pd > 0.0 else -math.inf


def joint_pd(mean_snr: float, num_uavs: int, pfa: float) -> float:
    """Probability that all num_uavs targets are detected: exp(L ln PD).

    Independence across targets holds because each gets disjoint sensing
    symbols. At snr = 0 this degenerates to pfa^L.
    """
    if num_uavs < 1:
        raise ValueError(f"num_uavs must be >= 1, got {num_uavs}")
    return math.exp(num_uavs * log_pd_single(mean_snr, q_inv(pfa)))


def q_exp_approx(x: float) -> float:
    """Exponential surrogate for Q(x), valid on |x| <= SURROGATE_X_MAX.

    Negative arguments use the reflection 1 - approx(-x), which keeps
    approx(x) + approx(-x) == 1 exact in floating point.
    """
    if abs(x) > SURROGATE_X_MAX:
        raise SurrogateDomainError(
            f"|x| must be <= {SURROGATE_X_MAX}, got {x}"
        )
    if x < 0.0:
        return 1.0 - q_exp_approx(-x)
    return math.exp(-SURROGATE_A * x * x - SURROGATE_B * x - SURROGATE_C)


def log_joint_pd_surrogate(
    rho: float,
    xi: float,
    num_uavs: int,
    mode: str = "expanded",
) -> float:
    """Closed-form surrogate for ln(joint PD) as a function of the UAV count.

    rho = 2 * L * SNR_L is the load-invariant SNR budget (L * rho/L is
    constant as symbols are re-split), xi = Q^-1(pfa). Writing
    x = xi - sqrt(rho / L), the exact value is L * ln Q(x); the surrogate
    replaces Q by the exponential tail approximation, giving
    -L * exp(exponent) with

    - mode "expanded": exponent = -a rho/L + (2 a xi - b) sqrt(rho/L)
      - a xi^2 + b xi - c, the symbolic expansion of
      -a x^2 - b x - c (algebraically identical to evaluating the
      surrogate at x).
    - mode "fixed": the same terms in rho/L, then + 0.3798 xi - c, a
      historical tail kept for comparison. It is NOT the expansion's tail
      (-a xi^2 + b xi - c); the two variants differ by the constant factor
      exp(a xi^2 - b xi + 0.3798 xi), about 1.503 at pfa = 0.05.

    Valid only where x = xi - sqrt(rho/L) lies in [-SURROGATE_X_MAX, 0];
    outside that window a SurrogateDomainError is raised, and the capacity
    solver then solves on the exact objective instead.
    """
    if not rho > 0.0:
        raise ValueError(f"rho must be > 0, got {rho}")
    if num_uavs < 1:
        raise ValueError(f"num_uavs must be >= 1, got {num_uavs}")
    ratio = rho / num_uavs
    root = math.sqrt(ratio)
    x = xi - root
    if not -SURROGATE_X_MAX <= x <= 0.0:
        raise SurrogateDomainError(
            f"xi - sqrt(rho/L) = {x} outside [-{SURROGATE_X_MAX}, 0]"
        )
    # The two modes share the terms in rho/L; they differ only in the tail.
    a, b = SURROGATE_A, SURROGATE_B
    exponent = -a * ratio + (2.0 * a * xi - b) * root + _surrogate_tail(xi, mode)
    return -num_uavs * math.exp(exponent)


def _surrogate_tail(xi: float, mode: str) -> float:
    """The mode's constant term of the surrogate exponent (see above)."""
    a, b, c = SURROGATE_A, SURROGATE_B, SURROGATE_C
    if mode == "expanded":
        return -a * xi * xi + b * xi - c
    if mode == "fixed":
        return 0.3798 * xi - c
    raise ValueError(f"mode must be 'expanded' or 'fixed', got {mode!r}")


def surrogate_miss_inv(xi: float, mode: str) -> Callable[[float], float]:
    """The inverse of the surrogate's miss term, miss -> |x|, as Q^-1 is.

    With sqrt(rho/L) = xi + |x| the surrogate is -L * exp(-a |x|^2 - b |x|
    - offset), so |x| is the root of a |x|^2 + b |x| + ln miss + offset = 0,
    real for miss in (0, 1/2).
    """
    a, b = SURROGATE_A, SURROGATE_B
    offset = b * xi - a * xi * xi - _surrogate_tail(xi, mode)

    def inverse(miss: float) -> float:
        k = math.log(miss) + offset
        return -2.0 * k / (b + math.sqrt(b * b - 4.0 * a * k))

    return inverse
