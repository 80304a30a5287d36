"""Exact integer arithmetic for residuals of grid-rounded predictions.

A real-valued prediction ``xhat`` is rounded to the nearest point of the
grid ``(rho/tau) * Z`` (ties round up), giving a quantized prediction held
as an integer numerator ``n`` over ``tau``.  The residual ``e = x - n/tau``
then lives on a shifted ``1/tau`` lattice, and the paper's fold maps it
onto the non-negative integers by magnitude, ``floor(2e)`` for ``e >= 0``
and ``-floor(2e) - 1`` otherwise, so a Golomb coder can handle it
(codec._map_vector, on the numerators ``tau*x - n``).  ``unmap_array``
inverts the fold.  Everything past the single rounding step takes and
returns plain integers, with ``tau`` passed alongside: floor/ceil
divisions are mathematical (toward minus/plus infinity), never
truncations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SYMBOL_MIN = -(1 << 31)
SYMBOL_MAX = (1 << 31) - 1


@dataclass(frozen=True)
class Precision:
    """Prediction rounding grid with step ``rho/tau``.

    ``rho = tau = 1`` is plain integer rounding; smaller ratios keep more
    of the prediction.  ``Precision(0, 1)`` (module constant ``ASYMPTOTIC``)
    stands for the limit of an ever finer grid: the analysis formulas accept
    it, the codec rejects it.
    """

    rho: int
    tau: int

    def __post_init__(self) -> None:
        if self.rho == 0:
            if self.tau != 1:
                raise ValueError("asymptotic precision is Precision(0, 1)")
            return
        if not 1 <= self.rho <= self.tau:
            raise ValueError(f"need 1 <= rho <= tau, got {self.rho}/{self.tau}")

    @property
    def is_asymptotic(self) -> bool:
        return self.rho == 0

    @property
    def half_shift(self) -> float:
        """Half a grid step, rho/(2*tau); 0.0 in the asymptotic limit."""
        if self.rho == 0:
            return 0.0
        return self.rho / (2.0 * self.tau)

    def __str__(self) -> str:
        return "0" if self.rho == 0 else f"{self.rho}/{self.tau}"


ASYMPTOTIC = Precision(0, 1)


def round_prediction(xhat: float, precision: Precision) -> int:
    """Numerator over tau of the rho/tau grid point nearest ``xhat``.

    Ties round toward +inf.  The one floating-point operation in the
    pipeline; everything downstream is exact.  The numerator is always a
    multiple of rho.  A prediction so large that tau * xhat / rho
    overflows to inf raises the ValueError that codec's vector twin
    raises for any numerator of 2**62 or more.

    >>> round_prediction(0.70, Precision(1, 4))
    3
    >>> round_prediction(0.625, Precision(1, 4))   # tie rounds up
    3
    >>> round_prediction(-0.625, Precision(1, 4))
    -2
    """
    if precision.rho == 0:  # is_asymptotic, without a property call per symbol
        raise ValueError("a finite precision is required to quantize")
    if not math.isfinite(xhat):
        raise ValueError(f"prediction must be finite, got {xhat!r}")
    k = precision.tau * xhat / precision.rho + 0.5
    if math.isinf(k):
        raise ValueError("prediction magnitude overflows the residual range")
    return precision.rho * math.floor(k)


def unmap_array(values: np.ndarray, numerators: np.ndarray, tau: int) -> np.ndarray:
    """The symbols whose residual numerators against numerators fold to
    values, element by element over int64 arrays.

    With c = ceil(2n/tau) and s = v + c, the parity of s says which side
    of the prediction n/tau the symbol sat on: it is s/2 for even s and
    (c - v - 1)/2 otherwise.  Exact for 0 <= v < 2**62 and |n| < 2**62,
    as the compiled unfold: c is split as 2h + q, so v + c, which can
    pass 2**63, is never formed.  With d = v + q and p = d & 1, the even case is
    h + (d >> 1) and the odd one h - (d >> 1) - 1 + q, so one expression
    takes both: h + ((d >> 1) ^ -p) + (p & q), with no branch.
    """
    c = numerators * -2
    c //= tau
    np.negative(c, out=c)  # ceil(2n/tau); the steps below work in place
    q = c & 1
    d = values + q
    p = d & 1
    d >>= 1
    np.negative(p, out=p)
    d ^= p
    p &= q  # -p & q is p & q
    c >>= 1
    d += c
    d += p
    return d
