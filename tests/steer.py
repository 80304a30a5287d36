"""Adaptive streams whose m follows a chosen schedule.

steered_symbols picks each symbol's magnitude so that the estimator's m
after it is the schedule's next m: the smallest magnitude that gives it.
So a sum that can rise into m's interval sits at its bottom, and one
large residual takes m up by any amount.  From the bottom, one residual
of 0 takes m down by one, but leaves the sum at the top of the lower
interval, from which m falls again only after about t/m more zeros.  The predictions are all zero, so a symbol x adds
|x| to the raw sum and tau * |x| to the integer one.
"""

import numpy as np

from frgc import _estcore

from mtable import table_m


def steered_symbols(ms, tau=1, raw=False, seed=0):
    """Symbols, with all-zero predictions, that the adaptive coder codes
    under ms[t] at symbol t wherever the sum can reach it; ms[0] must be
    1, the cold start's m.  Each symbol's sign is random."""
    assert ms[0] == 1
    rng = np.random.default_rng(seed)
    scale = 1 if raw else tau  # table_m's tau
    unit = 1 if raw else tau   # what |x| = 1 adds to the sum
    s, xs = 0, []
    for t, want in enumerate([*ms[1:], ms[-1]], start=1):
        # the smallest magnitude whose sum gives want or more
        lo = _estcore.m_interval(want)[0]
        a = 0 if want == 1 else max(0, int((-t * scale / lo - s) / unit))
        while table_m(t, s + unit * a, scale) < want:
            a += 1
        while a and table_m(t, s + unit * (a - 1), scale) >= want:
            a -= 1
        s += unit * a
        xs.append(a if rng.random() < 0.5 else -a)
    return np.array(xs, np.int64)


def held_schedule(n, hold, seed=0, top=64):
    """n symbols' m in runs whose lengths are drawn from hold = (shortest,
    longest), within [1, top].  The first run is of m = 1, the cold
    start's, and lasts a symbol longer; by its end t is large enough for
    an integer sum to reach any m.  Each later run's m is one below the
    last, or one to three above it.  Only a run held at the bottom of its
    interval can step down, and a step down leaves the sum at the top of
    the new one, so the run after a step down steps up."""
    rng = np.random.default_rng(seed)
    ms, m, down = [1], 1, True
    while len(ms) < n:
        ms += [m] * int(rng.integers(hold[0], hold[1] + 1))
        down = not down and m > 1 and (m == top or rng.random() < 0.5)
        m = m - 1 if down else min(m + int(rng.integers(1, 4)), top)
    return ms[:n]


def m_runs(ms):
    """(m, length) of each run of one m in ms."""
    ms = np.asarray(ms)
    starts = np.flatnonzero(np.concatenate(([True], ms[1:] != ms[:-1])))
    lengths = np.diff(np.concatenate((starts, [ms.size])))
    return list(zip(ms[starts].tolist(), lengths.tolist()))
