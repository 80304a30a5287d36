"""The adaptive m by a search of the boundary table, the tests' oracle.

frgc._estcore.select_m guesses m from a closed form and settles the
guess with one compare against the table; the compiled kernels do the
same in C.  ``table_m`` finds the same m the way the paper states the
rule, as the smallest k with ln theta_hat <= ln b_k: a binary search
(bisect_left) over LOG_BOUNDARIES, capped at MAX_ADAPTIVE_M, with no
guess to get wrong.  ``ulps_around`` and ``tied_sum`` aim quotients
at a boundary, or at any other float, to the last bit.
"""

import math
from bisect import bisect_left

from frgc._estcore import LOG_BOUNDARIES, MAX_ADAPTIVE_M


def m_of_quotient(x: float) -> int:
    """The m for the quotient x = ln theta_hat = -float(t * tau) / float(s), s > 0."""
    return min(bisect_left(LOG_BOUNDARIES, x) + 1, MAX_ADAPTIVE_M)


def table_m(t: int, s, tau: int = 1) -> int:
    """The m after t symbols whose |residual| sum is s / tau: s the integer
    numerator sum, or the raw float sum with tau = 1; 1 where s <= 0."""
    if s <= 0:
        return 1
    return m_of_quotient(-float(t * tau) / float(s))


def ulps_around(x: float, ulps: int = 2) -> list[float]:
    """x and the floats up to ulps steps below and above it."""
    out = [x]
    for toward in (-math.inf, math.inf):
        y = x
        for _ in range(ulps):
            y = math.nextafter(y, toward)
            out.append(y)
    return out


def tied_sum(x: float, start: int = 1) -> tuple[int, float]:
    """(t, s): a count t >= start and a raw sum s with -t / s exactly x < 0."""
    for t in range(start, start + 5000):
        for s in ulps_around(-t / x, 3):
            if -t / s == x:
                return t, s
    raise AssertionError(x)
