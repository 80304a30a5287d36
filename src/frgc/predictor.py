"""Windowed least-squares linear prediction from exact integer sums.

The order-alpha predictor at time t is xhat_t = sum_j a_j * x_{t-1-j}.
Coefficients minimize the squared error over the most recent ``window``
samples and are refit every ``refit_interval`` symbols.

The normal equations are read off lag-product window sums
S_k(s) = sum_{u=s-W+1..s} x_u * x_{u-k}, k = 0..order (x_u = 0 for
u < 0), which ``LpcState`` brings up to date at each refit, in exact
integers: the positions since the last refit but the final order+1 in
one numpy correlation per window end (int64 where no sum can wrap,
Python integers elsewhere), then those order+1 one at a time in Python
integers.  That is O(order) work per symbol however often it refits,
where summing the window afresh at each refit cost O(window * order**2).
The sums are exact and ``float(int)`` rounds correctly, so the matrix
handed to the solver depends only on the symbols, never on an order of
summation;
encoder and decoder agree bit for bit on every platform with IEEE 754
doubles, for any 32-bit input (window sums of 32-bit products reach
2**78, past where float sums are exact).  ``_solve`` is Gaussian
elimination with partial pivoting; ``fit`` hands order-2 systems to
``_solve2``, the same float operations unrolled for 2x2.

A decoder predicts one refit span at a time: ``LpcState.span`` gives the
coefficients in force from the next position on and where the next refit
falls, so all it checks per symbol is whether that position has come.

``batch_predictions`` is ``LpcState``'s whole-array twin, for an encoder
or a traced decode, which know every symbol in advance.  It takes the
window sums of a block of positions from lag products and a running
sum, solves the block's normal equations together in ``_solve_stacked``,
which does ``_solve``'s float operations in ``_solve``'s order, and
forms the predictions in ``predict_at``'s order: the same bits as the
loop.  The sums are int64 where window * max|x|**2 < 2**63
(``sums_fit_int64``: 16- and 24-bit samples at any window), else Python
integers.  The tests check it against a loop over ``LpcState``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


@dataclass(frozen=True)
class LpcConfig:
    order: int
    window: int
    refit_interval: int

    # the largest order, window and refit interval, format constants that
    # bound the stream header's fields
    LIMITS = (255, 65535, 65535)

    def __post_init__(self) -> None:
        names = ("order", "window", "refit interval")
        for name, value, top in zip(names, (self.order, self.window, self.refit_interval),
                                    self.LIMITS):
            if not 1 <= value <= top:
                raise ValueError(f"{name} must be in [1, {top}], got {value}")

    @property
    def warmup(self) -> int:
        """Symbols needed before the first fit has a full window."""
        return self.order + self.window


def identity_coefficients(order: int) -> list[float]:
    """Fallback [1, 0, ..., 0]: predict the previous sample."""
    return [1.0] + [0.0] * (order - 1)


def _solve(a: list[list[float]], b: list[float]) -> list[float] | None:
    """Gaussian elimination with partial pivoting; None if singular.

    The pivot is the first entry of largest magnitude in its column.  The
    float operations and their order, and so every bit of the result, are
    part of the stream format: both ends of a stream must fit the same
    coefficients.  Entries below a pivot are never read once their row is
    reduced, so they are not updated.
    """
    n = len(b)
    scale = max(map(abs, chain.from_iterable(a)), default=0.0)
    tol = 1e-10 * max(1.0, scale)
    m = [[*row, rhs] for row, rhs in zip(a, b)]
    for col in range(n):
        top = m[col]
        pivot, big = col, abs(top[col])
        for r in range(col + 1, n):
            v = abs(m[r][col])
            if v > big:
                pivot, big = r, v
        if big <= tol:
            return None
        if pivot != col:
            top = m[pivot]
            m[col], m[pivot] = top, m[col]
        inv = 1.0 / top[col]
        for r in range(col + 1, n):
            row = m[r]
            f = row[col] * inv
            if f != 0.0:
                for c in range(col + 1, n + 1):
                    row[c] -= f * top[c]
    out = [0.0] * n
    for col in range(n - 1, -1, -1):
        row = m[col]
        s = row[n]
        for c in range(col + 1, n):
            s -= row[c] * out[c]
        out[col] = s / row[col]
    return out


def _solve2(a00: float, a01: float, a10: float, a11: float,
            b0: float, b1: float) -> list[float] | None:
    """``_solve`` on [[a00, a01], [a10, a11]] x = [b0, b1], unrolled.

    The same float operations in the same order, so the same bits: the
    same tol, the second row as pivot only where strictly larger, no
    update where the factor is 0.0, and the same back-substitution.
    """
    big, below = abs(a00), abs(a10)
    scale = max(big, abs(a01), below, abs(a11))
    tol = 1e-10 * scale if scale > 1.0 else 1e-10  # 1e-10 * max(1.0, scale)
    if below > big:
        a00, a01, b0, a10, a11, b1 = a10, a11, b1, a00, a01, b0
        big = below
    if big <= tol:
        return None
    f = a10 * (1.0 / a00)
    if f != 0.0:
        a11 -= f * a01
        b1 -= f * b0
    if abs(a11) <= tol:
        return None
    x1 = b1 / a11
    return [(b0 - a01 * x1) / a00, x1]


def _solve_stacked(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_solve`` on a stack of systems: (solutions, singular).

    a is (count, n, n) and b (count, n), float64.  Each system gets
    ``_solve``'s float operations in ``_solve``'s order: the same tol,
    the first largest pivot, the row swap, no update where the factor is
    0.0 (so signed zeros match) and the same back-substitution.  A row
    of the solutions equals ``_solve``'s result bit for bit where
    singular is False; where it is True ``_solve`` returns None and the
    row holds garbage.
    """
    count, n = b.shape
    m = np.concatenate((a, b[:, :, None]), axis=2)
    tol = 1e-10 * np.maximum(1.0, np.abs(a).max(axis=(1, 2), initial=0.0))
    singular = np.zeros(count, dtype=bool)
    stack = np.arange(count)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for col in range(n):
            column = np.abs(m[:, col:, col])
            pivot = col + np.argmax(column, axis=1)
            singular |= column[stack, pivot - col] <= tol
            top = m[stack, pivot]
            m[stack, pivot] = m[:, col]
            m[:, col] = top
            f = m[:, col + 1:, col] * (1.0 / top[:, col])[:, None]
            below = m[:, col + 1:, col + 1:]
            np.copyto(below, below - f[:, :, None] * top[:, None, col + 1:],
                      where=(f != 0.0)[:, :, None])
        # s = row[n] - row[col+1]*out[col+1] - ... - row[n-1]*out[n-1],
        # subtracted in that order: subtract.reduce folds axis 0 left to right.
        out = np.empty((n, count))
        for col in range(n - 1, -1, -1):
            terms = np.empty((n - col, count))
            terms[0] = m[:, col, n]
            np.multiply(m[:, col, col + 1:n].T, out[col + 1:], out=terms[1:])
            out[col] = np.subtract.reduce(terms, axis=0) / m[:, col, col]
    return out.T, singular


def fit(sums: Sequence[Sequence[int]],
        previous: list[float] | None = None) -> list[float]:
    """Least-squares coefficients for time t from its window sums.

    ``sums[-1 - i]`` is the lag-product vector S(t-1-i) for i = 0..order,
    each indexed by lag 0..order.  The normal equations are
    b_j = S_{j+1}(t-1) and A_jl = A_lj = S_{l-j}(t-2-j) for j <= l.  A
    singular window (constant zeros, say) keeps the previous
    coefficients, or the identity fallback when there are none.  Order 2
    goes to ``_solve2``, ``_solve`` unrolled.
    """
    order = len(sums) - 1
    if order == 2:
        _, b0, b1 = sums[-1]
        a00, a01, _ = sums[-2]
        a01 = float(a01)
        coeffs = _solve2(float(a00), a01, a01, float(sums[-3][0]), float(b0), float(b1))
    else:
        b = list(map(float, sums[-1][1:]))
        a: list[list[float]] = []
        for j in range(order):
            a.append([row[j] for row in a] + list(map(float, sums[-2 - j][:order - j])))
        coeffs = _solve(a, b)
    if coeffs is None:
        return list(previous) if previous is not None else identity_coefficients(order)
    return coeffs


def predict_at(history: Sequence[int], coeffs: Sequence[float], t: int) -> float:
    """Prediction for position t from the t samples before it."""
    if t < len(coeffs):
        raise ValueError("not enough history for the predictor order")
    s = 0.0
    for j, c in enumerate(coeffs):
        s += c * history[t - 1 - j]
    return s


_PREVIOUS = (1.0,)  # coefficients that repeat the previous sample


class LpcState:
    """The decoder's predictor of one stream; batch_predictions's twin.

    Position 0 predicts 0.0 and positions before the first full window
    repeat the previous sample; from ``cfg.warmup`` on, the coefficients
    are refit every ``cfg.refit_interval`` symbols by ``fit``.  ``span()``
    is the one definition of that schedule: it gives the coefficients that
    predict a run of positions, in ``predict_at``'s order over
    ``history``, and where the run ends.  A decoder predicts and appends
    symbols to ``history`` itself until then.

    The window sums are brought up to date only when a refit reads them,
    inside ``span()``: a gap of more than order+1 positions is crossed in
    one jump (``_jump``), and the last order+1 positions, whose sums the
    normal equations read, one indexed comprehension each.
    """

    def __init__(self, cfg: LpcConfig) -> None:
        self.cfg = cfg
        self.coeffs: list[float] | None = None
        self._next_fit = cfg.warmup
        # x_u sits at index u + pad; the zeros stand in for x_u, u < 0,
        # so no window or lag reaches below index 0, and _PREVIOUS over
        # them predicts 0.0 at position 0.
        self._pad = cfg.window + cfg.order + 1
        self._window, self._lags = cfg.window, range(cfg.order + 1)
        self.history = [0] * self._pad
        # S(s) by lag for the order+1 positions s up to _pos, newest last
        # (at the start only S(-1), all zero).
        self._pos = -1
        self._sums = [[0] * (cfg.order + 1)]

    def span(self) -> tuple[Sequence[float], int]:
        """(coeffs, end): the coefficients that predict positions t to
        end - 1, t the next position, refitting first when one is due at t.

        Before the first full window they are _PREVIOUS, which repeats the
        previous sample.
        """
        h = self.history
        pad = self._pad
        t = len(h) - pad
        if t == self._next_fit:
            self._next_fit = t + self.cfg.refit_interval
            # S(s) for s in (_pos, t - 1], the last order+1 of them kept;
            # x_s sits at index s + pad
            lags = self._lags
            first, end = self._pos + 1 + pad, t + pad
            if end - first > len(lags):
                first = end - len(lags)
                row = self._jump(first)
                sums = []
            else:
                row = self._sums[-1]
                sums = self._sums[end - first:]
            w = self._window
            for i in range(first, end):
                j = i - w
                x, y = h[i], h[j]
                row = [row[k] + x * h[i - k] - y * h[j - k] for k in lags]
                sums.append(row)
            self._sums = sums
            self._pos = t - 1
            self.coeffs = fit(sums, self.coeffs)
        return self.coeffs or _PREVIOUS, self._next_fit

    def _jump(self, end: int) -> list[int]:
        """S(s), s = end - 1 - pad, from S(_pos): for each lag k, the sum
        of x_u*x_{u-k} over u in (_pos, s] added and that of
        x_{u-W}*x_{u-W-k} dropped.

        Each window end is one numpy correlation over its stretch of the
        history: in int64 where gap * peak**2 < 2**62 (gap the number of
        terms, peak the largest |x| the stretches hold; sums_fit_int64 at
        twice the gap), so that neither sum nor their difference can wrap,
        else on Python integers in an object array.  Either way the sums
        are exact, and they come back as Python integers.
        """
        h = self.history
        order, w = self.cfg.order, self._window
        first = self._pos + 1 + self._pad
        gap = end - first
        tails = np.array(h[first - order:end] + h[first - w - order:end - w],
                         dtype=np.int64)
        if not sums_fit_int64(tails, 2 * gap):
            tails = tails.astype(object)
        added, dropped = tails[:gap + order], tails[gap + order:]
        # correlate(a, a[order:])[i] is the sum over u of x_u*x_{u-order+i}
        delta = (np.correlate(added, added[order:])
                 - np.correlate(dropped, dropped[order:])).tolist()
        return [v + d for v, d in zip(self._sums[-1], reversed(delta))]


# Working memory of one block of batch_predictions, about: each of its
# two window-sum buffers, and its stack of normal equations, holds at
# most this many bytes whatever the stream length and window.
_BLOCK_BYTES = 1 << 20
# What a window sum takes on Python integers: a pointer, and the int it
# points to (a product of 32-bit samples, or a sum of them, is a 36- to
# 40-byte object, which the allocator rounds to 40).
_OBJECT_ENTRY_BYTES = 8 + 40


def sums_fit_int64(xs: np.ndarray, window: int) -> bool:
    """Whether every window sum of int64 xs fits in int64, so that
    batch_predictions can sum in int64: window * max|x|**2 < 2**63."""
    if not xs.size:
        return True
    peak = max(-int(xs.min()), int(xs.max()))
    return window * peak * peak < 1 << 63


def _segment(xs: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """x_u for u in [lo, hi), with x_u = 0 for u < 0."""
    if lo >= 0:
        return xs[lo:hi]
    seg = np.zeros(hi - lo, dtype=xs.dtype)
    if hi > 0:
        seg[-lo:] = xs[:hi]
    return seg


def _block_span(cfg: LpcConfig, dtype) -> int:
    """Positions per block of batch_predictions on window sums of
    ``dtype``, int64 or object: as many as keep the window sums of the
    block, at 8 or _OBJECT_ENTRY_BYTES each, and its at most
    ceil(span / refit) normal equations, float64 and the pointers or
    int64 they are gathered from, within _BLOCK_BYTES each."""
    order = cfg.order
    entry_bytes = _OBJECT_ENTRY_BYTES if dtype == object else 8
    fits = max(1, _BLOCK_BYTES // (8 * order * (order + 1)))
    return max(1, min(_BLOCK_BYTES // (entry_bytes * (order + 1)),
                      fits * cfg.refit_interval))


def batch_predictions(xs: np.ndarray, cfg: LpcConfig) -> np.ndarray:
    """LpcState's prediction of every symbol of int64 xs, as float64.

    Positions go in blocks of ``span``.  A block takes S_k(s) for every
    s its fits read from products x_s*x_{s-k} - x_{s-W}*x_{s-W-k} and a
    running sum from the sums carried out of the block before it: int64
    where sums_fit_int64, which wrap modulo 2**64 on the way and come out
    exact because each fits, and Python integers elsewhere.  It converts
    the normal equations of its fits to float64 as ``fit`` does, solves
    them together, lets a singular fit keep the coefficients before it
    (the identity before any), and predicts each position as
    ``predict_at`` would from the coefficients in force.
    """
    if not sums_fit_int64(xs, cfg.window):
        xs = xs.astype(object)
    n = xs.size
    order, window, refit, warmup = (cfg.order, cfg.window, cfg.refit_interval,
                                    cfg.warmup)
    out = np.zeros(n)
    out[1:warmup] = xs[:min(n, warmup) - 1]
    if n <= warmup:
        return out
    span = min(n, _block_span(cfg, xs.dtype))
    # Row i of a block's sums is s = a - 1 - order + i, for positions
    # t in [a, b): a fit at t reads s in [t - 1 - order, t - 1].
    sums = np.empty((order + 1, span + order), dtype=xs.dtype)
    dropped = np.empty_like(sums)
    carry = np.zeros(order + 1, dtype=xs.dtype)  # S(a - 2 - order)
    coeffs = np.array(identity_coefficients(order))
    lag = abs(np.subtract.outer(np.arange(order), np.arange(order)))
    back = 1 + np.minimum.outer(np.arange(order), np.arange(order))
    for a in range(0, n, span):
        b = min(n, a + span)
        rows = b - a + order
        s0 = a - 1 - order
        block, gone = sums[:, :rows], dropped[:, :rows]
        for buf, lo in ((block, s0), (gone, s0 - window)):
            seg = _segment(xs, lo - order, lo + rows)
            np.multiply(seg[order:], sliding_window_view(seg, rows)[::-1], out=buf)
        np.subtract(block, gone, out=block)
        block[:, 0] += carry
        np.cumsum(block, axis=1, out=block)
        carry = block[:, b - a - 1].copy()
        first = max(a, warmup)
        if first >= b:
            continue
        i0 = -(-(first - warmup) // refit)
        at = np.arange(warmup + i0 * refit, b, refit) - 1 - s0  # row of t - 1
        if at.size:
            normal = block[lag, at[:, None, None] - back].astype(np.float64)
            solved, singular = _solve_stacked(normal, block[1:, at].T.astype(np.float64))
            keep = np.where(singular, 0, np.arange(1, at.size + 1))
            table = np.vstack((coeffs, solved))[
                np.concatenate(([0], np.maximum.accumulate(keep)))]
            coeffs = table[-1]
        else:
            table = coeffs[None]
        t = np.arange(first, b)
        in_force = table[(t - warmup) // refit - i0 + 1]
        history = xs[first - order:b - 1].astype(np.float64)
        pred = out[first:b]
        for j in range(order):
            pred += in_force[:, j] * history[order - 1 - j:order - 1 - j + b - first]
    return out
