"""The adaptive choice of the Golomb parameter, shared by every stream loop.

The paper picks m = the smallest k with theta_hat <= b_k = phi_k**2, where
phi_k is the root of phi**(k+1) + phi**k = 1.  exp is monotone, so that is
the smallest k with ln theta_hat <= ln b_k, and ln theta_hat = -t*tau/S is
computed before any exp would be.  Deciding on the log avoids libm:
int->float conversion and division are correctly rounded under IEEE 754,
so encoder and decoder pick the same m on every platform.  The compiled
kernel copies LOG_BOUNDARIES when it is imported and mirrors the same
two-cast expression in C.

So select_m gives m exactly while ln theta_hat lies in m's interval
(m_interval): a decoder that holds m tests that interval after each
symbol, two compares, and calls select_m only when the test fails.

run steps the estimator over an array of symbols at once; the whole-array
encoder and the codec's trace call it.  hold steps it over a window that
a decoder parsed under one m, and tests the window's sums against m's
interval: the one array form of that test.
"""

from __future__ import annotations

import math
from bisect import bisect_left

import numpy as np

# The stream accumulator saturates here so 64-bit kernels can hold it.
# Decision-neutral while t*tau < 2**56: any S >= 2**62 then puts -t*tau/S
# above the last log-boundary, so m = 64 either way.
EST_SATURATION = 1 << 62

MAX_ADAPTIVE_M = 64  # format constant: size of the boundary table

# ln b_k = 2*ln(phi_k) for k = 1..64, as 2*math.log(analysis.phi_root(k));
# analysis.M_BOUNDARIES is exp of each entry.  A format constant: changing
# one changes streams.
LOG_BOUNDARIES = tuple(map(float.fromhex, (
    "-0x1.ecc2caec51608p-1", "-0x1.1ff2c7fd77085p-1", "-0x1.987ec9a328df3p-2",
    "-0x1.3cd1acb95d380p-2", "-0x1.02d889220ef05p-2", "-0x1.b5b0388b9d961p-3",
    "-0x1.7b22ade8cb90ep-3", "-0x1.4e6ab3994a1fbp-3", "-0x1.2b24ae038b9fdp-3",
    "-0x1.0e9b3068da832p-3", "-0x1.ee15f3b6d662ep-4", "-0x1.c683592b86f15p-4",
    "-0x1.a4cfe6654ec6fp-4", "-0x1.87c40854034c0p-4", "-0x1.6e78bf0c93e85p-4",
    "-0x1.583f24d982b6fp-4", "-0x1.44905e8153fb2p-4", "-0x1.3302c3f379611p-4",
    "-0x1.23426089990e1p-4", "-0x1.150ba61f9b6efp-4", "-0x1.08279b6d2a9f3p-4",
    "-0x1.f8d21ee2b890ep-5", "-0x1.e355081d79a94p-5", "-0x1.cf9936dd03594p-5",
    "-0x1.bd69c8721bcc5p-5", "-0x1.ac99d71f17402p-5", "-0x1.9d030600b1888p-5",
    "-0x1.8e845b5d75b94p-5", "-0x1.810156bcdc381p-5", "-0x1.7461350ad186dp-5",
    "-0x1.688e5889ede1fp-5", "-0x1.5d75ccdc8a216p-5", "-0x1.5306e14516013p-5",
    "-0x1.4932d49aff3aap-5", "-0x1.3fec8f75deb83p-5", "-0x1.372869d4c42e3p-5",
    "-0x1.2edbfa1c80c83p-5", "-0x1.26fdebb9fdabfp-5", "-0x1.1f85dc0dce8a7p-5",
    "-0x1.186c3c8abbb30p-5", "-0x1.11aa3926a9fb6p-5", "-0x1.0b39a26793a3bp-5",
    "-0x1.0514da77cf4cbp-5", "-0x1.fe6d898f4849cp-6", "-0x1.f3356faf3f9b4p-6",
    "-0x1.e878e1b0e1263p-6", "-0x1.de3011b61a1bap-6", "-0x1.d453d6aebb8e0p-6",
    "-0x1.cadd9bb1eb798p-6", "-0x1.c1c7515227ed0p-6", "-0x1.b90b60a6fc8e2p-6",
    "-0x1.b0a49fd20ac57p-6", "-0x1.a88e47cdbf2c0p-6", "-0x1.a0c3eb5b5a299p-6",
    "-0x1.99416eec0ba7fp-6", "-0x1.92030166052edp-6", "-0x1.8b0515aab98cdp-6",
    "-0x1.84445cc72b0d3p-6", "-0x1.7dbdc0ba45dfbp-6", "-0x1.776e5fbfe91f3p-6",
    "-0x1.71538811836e3p-6", "-0x1.6b6ab40f18062p-6", "-0x1.65b186c5284b3p-6",
    "-0x1.6025c8c56db20p-6",
)))


def select_m(t: int, s, tau: int = 1) -> int:
    """Golomb parameter after t symbols whose |residual| sum is s/tau.

    s is the integer numerator sum, or the raw float sum with tau=1.
    s <= 0 (which covers the cold start t=0) gives m=1.
    """
    if s <= 0:
        return 1
    i = bisect_left(LOG_BOUNDARIES, -float(t * tau) / float(s))
    return i + 1 if i < MAX_ADAPTIVE_M else MAX_ADAPTIVE_M


def m_interval(m: int) -> tuple[float, float]:
    """(lo, hi): select_m(t, s, tau) is m exactly when s > 0 and
    lo < -float(t * tau) / float(s) <= hi, for 1 <= m <= MAX_ADAPTIVE_M.

    The interval is (L_{m-1}, L_m] of LOG_BOUNDARIES, L_k its k-th entry,
    with L_0 = -inf, and open above at the cap m = MAX_ADAPTIVE_M.  Two
    cases lie outside it, and both give m = 1: s <= 0, which a decoder's
    sum is only before its first nonzero increment, while m is still 1;
    and a quotient of -inf, from a raw sum so small that it overflows,
    which fails lo < x at m = 1.  So a decoder holds m while the test
    passes, and calls select_m when it fails.
    """
    lo = LOG_BOUNDARIES[m - 2] if m > 1 else -math.inf
    hi = LOG_BOUNDARIES[m - 1] if m < MAX_ADAPTIVE_M else math.inf
    return lo, hi


_LOG_BOUNDARY_ARRAY = np.array(LOG_BOUNDARIES)


def select_m_array(t: np.ndarray, s: np.ndarray, tau: int = 1) -> np.ndarray:
    """select_m for many symbols at once: t, s are arrays of the same shape.

    s holds integer numerator sums (at most EST_SATURATION) or raw float
    sums with tau=1.  The int64 -> float64 casts and the division are the
    correctly rounded IEEE operations select_m does, and searchsorted on
    the left is bisect_left, so each entry equals select_m's choice.
    """
    positive = s > 0
    with np.errstate(over="ignore"):  # a raw sum near 0 gives -inf: m = 1
        log_theta = (-(np.asarray(t, dtype=np.int64) * tau).astype(np.float64)
                     / np.where(positive, s, 1).astype(np.float64))
    m = np.searchsorted(_LOG_BOUNDARY_ARRAY, log_theta) + 1
    return np.where(positive, np.minimum(m, MAX_ADAPTIVE_M), 1)


def running_sums(before, inc: np.ndarray, raw: bool) -> np.ndarray:
    """The estimator sum after each symbol, continuing from ``before``.

    A float cumsum adds in order, as the scalar loops do.  The integer
    sum saturates: before < 2**62 and each increment < 2**63, so the
    uint64 cumsum is exact up to its first entry >= EST_SATURATION, and
    every entry from there on is EST_SATURATION.  When even the largest
    increment at every symbol stays below it, the int64 cumsum is that
    sum.
    """
    if raw:
        return np.cumsum(np.concatenate(([before], inc)))[1:]
    if not inc.size or before + int(inc.max()) * inc.size < EST_SATURATION:
        sums = np.cumsum(inc)
        sums += before
        return sums
    sums = np.cumsum(inc.astype(np.uint64)) + np.uint64(before)
    full = sums >= EST_SATURATION
    if full.any():
        sums[int(np.argmax(full)):] = EST_SATURATION
    return sums.astype(np.int64)


def run(t: int, s, inc: np.ndarray, tau: int, raw: bool):
    """The estimator over symbols t, t + 1, ... whose increments are inc,
    from the sum s before symbol t.

    Returns (sums, ms): the sum after each symbol, and the m of each
    symbol followed by the m after the last, len(inc) + 1 values.  raw
    selects the float |x - xhat| sum, which select_m reads with tau=1.
    """
    sums = running_sums(s, inc, raw)
    ms = select_m_array(np.arange(t, t + sums.size + 1),
                        np.concatenate(([s], sums)), 1 if raw else tau)
    return sums, ms


def hold(t: int, s, inc: np.ndarray, m: int, tau: int, raw: bool):
    """run's sums for a decoder that holds m from symbol t on: (sums, j,
    m_next), j the first symbol (from 0) after which m changes and m_next
    select_m's m after it, or None, None where m holds throughout.

    The quotient q = t * tau / S after each symbol, formed as select_m
    forms it, is -ln theta_hat, so m holds while -q lies in m_interval(m):
    two compares.  Sums still 0 are a prefix, as sums never fall, and m
    is 1 there.  At m = 1 the lower test is left out: a raw sum so small
    that q overflows to +inf gives m = 1 too.  At the cap, -hi = -inf.
    """
    sums = running_sums(s, inc, raw)
    scale = 1 if raw else tau  # select_m's tau
    z = 0 if s > 0 else int(np.searchsorted(sums, 0, "right"))
    if z < sums.size:
        lo, hi = m_interval(m)
        with np.errstate(over="ignore"):
            q = np.arange((t + z + 1) * scale, (t + sums.size + 1) * scale, scale) / sums[z:]
        out = q < -hi
        if m > 1:
            out |= q >= -lo
        j = z + int(np.argmax(out))
        if out[j - z]:
            return sums, j, select_m(t + j + 1, sums[j].item(), scale)
    return sums, None, None
