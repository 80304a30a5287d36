"""Exact integer arithmetic for residuals of grid-rounded predictions.

A real-valued prediction ``xhat`` is rounded to the nearest point of the
grid ``(rho/tau) * Z`` (ties round up), giving a quantized prediction held
as an integer numerator ``n`` over ``tau``.  The residual ``x - n/tau``
then lives on a shifted ``1/tau`` lattice; its numerator ``tau*x - n`` is
folded onto the non-negative integers by ``map_residual`` so a Golomb
coder can handle it.  Everything past the single rounding step takes and
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


def ceildiv(a: int, b: int) -> int:
    """Quotient rounded toward plus infinity.

    >>> ceildiv(6, 4), ceildiv(-6, 4), ceildiv(8, 4)
    (2, -1, 2)
    """
    return -((-a) // b)


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


def residual(x: int, n: int, tau: int) -> int:
    """Exact residual of symbol ``x`` against the prediction ``n/tau``,
    scaled by tau: tau*x - n.

    >>> residual(1, 3, 4), residual(0, 3, 4)
    (1, -3)
    """
    if not SYMBOL_MIN <= x <= SYMBOL_MAX:
        raise OverflowError(f"symbol {x} outside signed 32-bit range")
    return tau * x - n


def map_residual(r: int, tau: int) -> int:
    """Fold the lattice residual ``r/tau`` onto 0, 1, 2, ... by magnitude.

    With ebar = r/tau this is floor(2*ebar) for ebar >= 0 and
    -floor(2*ebar) - 1 otherwise, computed without leaving the integers.

    >>> [map_residual(r, 4) for r in (1, -3, 5, -7)]
    [0, 1, 2, 3]
    >>> [map_residual(r, 1) for r in (0, -1, 1, -2)]
    [0, 1, 2, 3]
    """
    if r >= 0:
        return 2 * r // tau
    return -(2 * r // tau) - 1


def map_by_cases(gamma: int, delta: int, tau: int) -> int:
    """Case-split form of the fold; independent route used as a test oracle.

    (gamma, delta) = divmod(r, tau).  Lattice points closer than half a
    unit to their integer part (delta below tau/2) land on even/odd codes
    2g / -2g-1; the far half lands one slot later.
    """
    if not 0 <= delta < tau:
        raise ValueError(f"need 0 <= delta < tau, got delta={delta}, tau={tau}")
    if 2 * delta < tau:
        return 2 * gamma if gamma >= 0 else -2 * gamma - 1
    return 2 * gamma + 1 if gamma >= 0 else -2 * gamma - 2


def unmap(v: int, n: int, tau: int) -> int:
    """Invert map_residual given the same prediction ``n/tau``.

    The fold leaves exactly one integer consistent with each code: the
    parity of ``v + ceil(2n/tau)`` says which side of the prediction the
    symbol sat on.

    >>> [unmap(v, 3, 4) for v in (0, 1, 2, 3)]
    [1, 0, 2, -1]
    """
    if v < 0:
        raise ValueError(f"mapped residual must be non-negative, got {v}")
    c = ceildiv(2 * n, tau)
    s = v + c
    if s % 2 == 0:
        return s // 2
    return (c - v - 1) // 2


def unmap_array(values: np.ndarray, numerators: np.ndarray, tau: int) -> np.ndarray:
    """unmap over int64 arrays, element by element.

    Exact for 0 <= v < 2**62 and |n| < 2**62, as the compiled unfold:
    c = ceil(2n/tau) is split as 2h + q, so v + c, which can pass 2**63,
    is never formed.  With d = v + q and p = d & 1, the even case is
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
