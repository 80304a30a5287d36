"""Windowed least-squares linear prediction from exact integer sums.

The order-alpha predictor at time t is xhat_t = sum_j a_j * x_{t-1-j}.
Coefficients minimize the squared error over the most recent ``window``
samples and are refit every ``refit_interval`` symbols.

The normal equations are read off lag-product window sums
S_k(s) = sum_{u=s-W+1..s} x_u * x_{u-k}, k = 0..order (x_u = 0 for
u < 0), which ``LpcState`` slides along the stream in Python integers:
O(order) work per symbol however often it refits, where summing the
window afresh at each refit cost O(window * order**2).  The sums are
exact and ``float(int)`` rounds correctly, so the matrix handed to the
solver depends only on the symbols, never on an order of summation;
encoder and decoder agree bit for bit on every platform with IEEE 754
doubles, for any 32-bit input (window sums of 32-bit products reach
2**78, past where float sums are exact).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import chain
from operator import mul
from typing import Sequence


@dataclass(frozen=True)
class LpcConfig:
    order: int
    window: int
    refit_interval: int

    def __post_init__(self) -> None:
        if not 1 <= self.order <= 255:
            raise ValueError(f"order must be in [1, 255], got {self.order}")
        if not 1 <= self.window <= 65535:
            raise ValueError(f"window must be in [1, 65535], got {self.window}")
        if not 1 <= self.refit_interval <= 65535:
            raise ValueError(
                f"refit interval must be in [1, 65535], got {self.refit_interval}")

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


def fit(sums: Sequence[Sequence[int]],
        previous: list[float] | None = None) -> list[float]:
    """Least-squares coefficients for time t from its window sums.

    ``sums[-1 - i]`` is the lag-product vector S(t-1-i) for i = 0..order,
    each indexed by lag 0..order.  The normal equations are
    b_j = S_{j+1}(t-1) and A_jl = A_lj = S_{l-j}(t-2-j) for j <= l.  A
    singular window (constant zeros, say) keeps the previous
    coefficients, or the identity fallback when there are none.
    """
    order = len(sums) - 1
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


class LpcState:
    """The predictor of one stream, shared by its encoder and decoder.

    Call ``predict()`` for the next symbol, then ``push()`` that symbol.
    Position 0 predicts 0.0 and positions before the first full window
    repeat the previous sample; from ``cfg.warmup`` on, the coefficients
    are refit every ``cfg.refit_interval`` symbols by ``fit``.

    The window sums are brought up to date only when a refit reads them:
    a gap of more than order+1 positions is crossed in one jump of exact
    dot products, and the last order+1 positions, whose sums the normal
    equations read, one position at a time.
    """

    def __init__(self, cfg: LpcConfig) -> None:
        self.cfg = cfg
        self.coeffs: list[float] | None = None
        self._next_fit = cfg.warmup
        # x_u sits at index u + pad; the zeros stand in for x_u, u < 0,
        # so no window or lag reaches below index 0.
        self._pad = cfg.window + cfg.order + 1
        self._history = [0] * self._pad
        # S(s) by lag for up to order+1 positions s, newest (s = _pos)
        # last; a jump leaves older entries stale until steps push them out.
        self._pos = -1
        self._sums = deque([[0] * (cfg.order + 1)], maxlen=cfg.order + 1)

    def predict(self) -> float:
        """Prediction of the next symbol, refitting first when one is due."""
        h = self._history
        t = len(h) - self._pad
        if t == self._next_fit:
            self.refit()
            self._next_fit += self.cfg.refit_interval
        elif self.coeffs is None:  # before the first full window
            return float(h[-1]) if t else 0.0
        return predict_at(h, self.coeffs, len(h))

    def push(self, x: int) -> None:
        """Append the symbol just coded."""
        self._history.append(x)

    def refit(self) -> list[float]:
        """Fit the coefficients for the next symbol now and keep them."""
        t = len(self._history) - self._pad
        if t < self.cfg.warmup:
            raise ValueError(f"need at least {self.cfg.warmup} samples, have {t}")
        order = self.cfg.order
        if t - 1 - self._pos > order + 1:
            self._jump(t - 2 - order)
        while self._pos < t - 1:
            self._step()
        self.coeffs = fit(self._sums, self.coeffs)
        return self.coeffs

    def _step(self) -> None:
        """S(s) from S(s-1): add x_s*x_{s-k}, drop x_{s-W}*x_{s-W-k}."""
        self._pos += 1
        h = self._history
        i = self._pos + self._pad
        w, order = self.cfg.window, self.cfg.order
        x, y = h[i], h[i - w]
        self._sums.append([v + x * r - y * g for v, r, g in zip(
            self._sums[-1], h[i:i - order - 1:-1], h[i - w:i - w - order - 1:-1])])

    def _jump(self, s: int) -> None:
        """S(s) from S(_pos) in one exact dot product per lag and end."""
        h = self._history
        w = self.cfg.window
        a, b = self._pos + 1 + self._pad, s + 1 + self._pad  # add x_u, u in (_pos, s]
        self._sums.append([v + sum(map(mul, h[a:b], h[a - k:b - k]))
                           - sum(map(mul, h[a - w:b - w], h[a - w - k:b - w - k]))
                           for k, v in enumerate(self._sums[-1])])
        self._pos = s
