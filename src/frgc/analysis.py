"""Closed-form model of the coder under Laplace-distributed residuals.

Provides the Laplace density/sampler, the average code length of a
parameter-m Golomb code applied to grid-rounded residuals, the per-interval
code lengths the average is built from, the optimal-m boundary table (the
m-th boundary is the square of the unique root of phi^(m+1) + phi^m - 1 in
(0,1); the adaptive codec chooses m by the same 64 entries), the
redundancy of keeping the asymptotically optimal m at a coarse grid, and
the classic one-sided-geometric Golomb parameter for reference.

Grid notation: a ``Precision(rho, tau)`` shifts every residual interval left
by s = rho/(2*tau); ``ASYMPTOTIC`` is the s = 0 limit.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from frgc._estcore import LOG_BOUNDARIES, MAX_ADAPTIVE_M
from frgc.qmap import ASYMPTOTIC, Precision


@dataclass(frozen=True)
class LaplaceModel:
    """Symmetric double exponential with pdf -(ln theta)/2 * theta**|eps|."""

    theta: float

    def __post_init__(self) -> None:
        if not 0.0 < self.theta < 1.0:
            raise ValueError(f"theta must be in (0,1), got {self.theta}")

    @property
    def scale(self) -> float:
        """Mean absolute deviation b = -1/ln(theta)."""
        return -1.0 / math.log(self.theta)


def laplace_pdf(model: LaplaceModel, eps: float) -> float:
    ln_t = math.log(model.theta)
    return -0.5 * ln_t * math.exp(ln_t * abs(eps))


def laplace_cdf(model: LaplaceModel, x: float) -> float:
    ln_t = math.log(model.theta)
    if x < 0.0:
        return 0.5 * math.exp(-ln_t * x)
    return 1.0 - 0.5 * math.exp(ln_t * x)


def laplace_sample(model: LaplaceModel, rng: np.random.Generator, size=None):
    """Inverse-CDF draws: eps = -b * sgn(u - 1/2) * ln(1 - 2|u - 1/2|).

    Returns a scalar for ``size=None``, else an ndarray.  The u = 0 corner
    of ``rng.random`` (which would blow up the log) is nudged to 2**-53.
    """
    scalar = size is None
    u = rng.random(1 if scalar else size)
    u = np.maximum(u, 2.0**-53)
    half = u - 0.5
    eps = -model.scale * np.sign(half) * np.log1p(-2.0 * np.abs(half))
    return float(eps[0]) if scalar else eps


def _lg_floor(m: int) -> int:
    return m.bit_length() - 1


def _lg_ceil(m: int) -> int:
    return (m - 1).bit_length()


def _is_pow2(m: int) -> bool:
    return m & (m - 1) == 0


def _check_m_theta(m: int, theta: float) -> None:
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if not 0.0 < theta < 1.0:
        raise ValueError(f"theta must be in (0,1), got {theta}")


def avg_code_length(m: int, theta: float, precision: Precision) -> float:
    """Expected bits per symbol for parameter m at the given grid.

    For m = 2**beta (m = 1 counts, with beta = 0):

        1 + lg m + (1/2) * theta**(m/2) / (1 - theta**(m/2))
                 * (theta**s + theta**-s)

    and for other m the leading coefficient exponent becomes
    (2**ceil(lg m) - m)/2 with floor(lg m) in the base term.  The
    asymptotic grid replaces the (1/2)(theta**s + theta**-s) factor by 1.
    """
    _check_m_theta(m, theta)
    half_m = theta ** (m / 2.0)
    if _is_pow2(m):
        coef = half_m / (1.0 - half_m)
    else:
        coef = theta ** (((1 << _lg_ceil(m)) - m) / 2.0) / (1.0 - half_m)
    base = 1.0 + _lg_floor(m)
    if precision.is_asymptotic:
        return base + coef
    s = precision.half_shift
    return base + 0.5 * coef * (theta**s + theta**-s)


def interval_code_length(eps: float, m: int, precision: Precision) -> int:
    """Codeword length (bits) for a residual falling at eps.

    The asymptotic code spends 1 + i + lg m bits on the i-th interval of
    width m/2 away from zero (power-of-two m); other m get one extra bit
    outside a center strip of half-width (T+1)/2, T = 2**ceil(lg m) - m - 1.
    A finite grid evaluates the same function at eps + rho/(2*tau).
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    u = abs(eps + precision.half_shift)
    if _is_pow2(m):
        i = int(math.floor(2.0 * u / m))
        return 1 + i + _lg_floor(m)
    t1 = (1 << _lg_ceil(m)) - m  # center strip covers |u| < t1/2
    if 2.0 * u < t1:
        return 1 + _lg_floor(m)
    i = int(math.floor((2.0 * u - t1) / m))
    return 2 + i + _lg_floor(m)


def phi_root(m: int) -> float:
    """Unique root of phi**(m+1) + phi**m - 1 in (0,1), by bisection.

    The polynomial is strictly increasing there, so bisection is run to
    float resolution (interval collapses), well past 1e-12.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    lo, hi = 0.0, 1.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        if mid ** (m + 1) + mid**m - 1.0 < 0.0:
            lo = mid
        else:
            hi = mid


# The optimal-m boundaries phi_k**2, k = 1..64: exp of the codec's
# log-boundaries, which equals phi_root(k)**2 exactly for every k.
M_BOUNDARIES = tuple(math.exp(b) for b in LOG_BOUNDARIES)


def lookup_m(theta: float) -> int:
    """Smallest m whose boundary covers theta; 64 past the table's end.

    A theta exactly on a boundary belongs to the smaller m (both are
    optimal there).  The search is over M_BOUNDARIES, in the theta
    domain, not the codec's guess and compare on ln theta: exp and log
    do not round-trip, so math.log(M_BOUNDARIES[k]) differs from
    LOG_BOUNDARIES[k] for 55 of the 64 k, and a theta on a boundary here
    is not on one there.
    """
    if not 0.0 < theta < 1.0:
        raise ValueError(f"theta must be in (0,1), got {theta}")
    return min(bisect.bisect_left(M_BOUNDARIES, theta) + 1, MAX_ADAPTIVE_M)


def redundancy(theta: float, precision: Precision) -> float:
    """Extra average bits from keeping m = lookup_m(theta) on a coarse grid.

    Computed as the literal difference of the two average-length formulas,
    avg_code_length(m, theta, precision) - avg_code_length(m, theta,
    ASYMPTOTIC), which equals (1/2) * coef * (theta**s + theta**-s - 2).
    """
    m = lookup_m(theta)
    return avg_code_length(m, theta, precision) - avg_code_length(m, theta, ASYMPTOTIC)


def redundancy_percent(theta: float, precision: Precision) -> float:
    """Redundancy as a percentage of the asymptotic average code length."""
    m = lookup_m(theta)
    return 100.0 * redundancy(theta, precision) / avg_code_length(m, theta, ASYMPTOTIC)


def golomb_mstar(theta: float) -> int:
    """Classic Golomb parameter ceil(lg(1+theta) / -lg(theta)) for a
    one-sided geometric source with ratio theta."""
    if not 0.0 < theta < 1.0:
        raise ValueError(f"theta must be in (0,1), got {theta}")
    m = math.ceil(math.log2(1.0 + theta) / -math.log2(theta))
    return max(1, m)
