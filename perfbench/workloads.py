"""Seeded input generators for the end-to-end codec benchmark.

Every workload draws from numpy's Philox generator keyed by the seed and
the workload's name, and uses no frgc code, so a change to the program
(its harness or its Laplace sampler included) cannot change the inputs.
The Golomb parameters of fixed mode are frozen here as the values
``frgc.lookup_m`` gave when the benchmark was written; a test checks
them against the program, so a change to the m rule shows there and not
as a silent change of workload.

A stream is described by plain data (``Stream``); the benchmark turns its
``spec`` into an ``frgc.StreamHeader``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

THETAS = (0.1, 0.3, 0.5, 0.7, 0.9)
# frgc.lookup_m(theta) for each entry of THETAS.
FIXED_M = {0.1: 1, 0.3: 1, 0.5: 2, 0.7: 4, 0.9: 13}
# (rho, tau); 1/1 is coded in rice mode where the mode is fixed.
PRECISIONS = ((1, 1), (1, 4), (1, 16))

SYMBOL_BITS = 12
LONG_STREAM = 100_000
FRAME = 256
FRAMES_PER_POINT = 4

# Each adaptive stream walks four theta values, one per quarter.
THETA_WALKS = (
    (0.1, 0.5, 0.9, 0.3),
    (0.9, 0.3, 0.7, 0.1),
    (0.5, 0.9, 0.1, 0.7),
)

LPC_FRAME = 4096
LPC_FRAMES_PER_CONFIG = 2
LPC_CONFIGS = ((2, 16, 16), (4, 64, 32), (8, 256, 256), (2, 32, 1))
LPC_PRECISION = (1, 8)
AR2 = (1.6, -0.7)
AR2_INNOVATION_SCALE = 200.0


@dataclass(frozen=True)
class Stream:
    """One pool entry: symbols, external predictions and header fields.

    ``spec`` holds the keyword arguments of ``frgc.StreamHeader`` with
    ``lpc`` as an (order, window, refit interval) tuple; ``theta`` is the
    Laplace parameter of a stationary stream and None otherwise.
    """

    label: str
    xs: np.ndarray
    predictions: np.ndarray | None
    spec: dict
    theta: float | None = None


def make_rng(seed: int, workload: str) -> np.random.Generator:
    key = int.from_bytes(hashlib.sha256(workload.encode()).digest()[:8], "little")
    return np.random.Generator(np.random.Philox(key=[seed, key]))


def laplace_predictions(rng: np.random.Generator, n: int,
                        thetas) -> tuple[np.ndarray, np.ndarray]:
    """Uniform 12-bit symbols with predictions off by Laplace noise.

    The residual x - prediction has P(|e| >= t) = theta**t; with several
    thetas the stream is cut into equal consecutive parts, one per theta.
    """
    xs = rng.integers(0, 1 << SYMBOL_BITS, n, dtype=np.int64)
    bounds = np.linspace(0, n, len(thetas) + 1).astype(int)
    noise = np.concatenate([
        rng.laplace(0.0, -1.0 / np.log(theta), hi - lo)
        for theta, lo, hi in zip(thetas, bounds, bounds[1:])])
    return xs, xs - noise


def fixed_spec(theta: float, rho: int, tau: int) -> dict:
    mode = "rice" if (rho, tau) == (1, 1) else "fixed"
    return dict(mode=mode, rho=rho, tau=tau, m=FIXED_M[theta])


def adaptive_spec(rho: int, tau: int, raw: bool = False) -> dict:
    return dict(mode="adaptive", rho=rho, tau=tau, raw_error_estimator=raw)


def gen_fixed(seed: int) -> list[Stream]:
    rng = make_rng(seed, "fixed")
    pool = []
    for rho, tau in PRECISIONS:
        for theta in THETAS:
            xs, pred = laplace_predictions(rng, LONG_STREAM, (theta,))
            pool.append(Stream(f"theta={theta} {rho}/{tau}", xs, pred,
                               fixed_spec(theta, rho, tau), theta))
    return pool


def gen_adaptive(seed: int) -> list[Stream]:
    rng = make_rng(seed, "adaptive")
    pool = []
    for i, (rho, tau) in enumerate(PRECISIONS):
        for j, raw in enumerate((False, True)):
            walk = THETA_WALKS[(i + j) % len(THETA_WALKS)]
            xs, pred = laplace_predictions(rng, LONG_STREAM, walk)
            est = "raw" if raw else "int"
            pool.append(Stream(f"walk={walk} {rho}/{tau} {est}", xs, pred,
                               adaptive_spec(rho, tau, raw)))
    return pool


def gen_frames(seed: int) -> list[Stream]:
    rng = make_rng(seed, "frames")
    pool = []
    for rho, tau in PRECISIONS:
        for theta in THETAS:
            for k in range(FRAMES_PER_POINT):
                adaptive = k % 2 == 1
                xs, pred = laplace_predictions(rng, FRAME, (theta,))
                if adaptive:
                    spec = adaptive_spec(rho, tau)
                else:
                    spec = fixed_spec(theta, rho, tau)
                pool.append(Stream(f"theta={theta} {rho}/{tau} {spec['mode']} #{k}",
                                   xs, pred, spec, theta))
    return pool


def ar2_signal(rng: np.random.Generator, n: int) -> np.ndarray:
    """Integer AR(2) signal with Laplace innovations, clipped to 16 bits."""
    a1, a2 = AR2
    e = rng.laplace(0.0, AR2_INNOVATION_SCALE, n).tolist()
    y = [0.0] * n
    prev1 = prev2 = 0.0
    for t in range(n):
        cur = a1 * prev1 + a2 * prev2 + e[t]
        y[t] = cur
        prev2, prev1 = prev1, cur
    return np.clip(np.rint(y), -(1 << 15), (1 << 15) - 1).astype(np.int64)


def gen_lpc(seed: int) -> list[Stream]:
    rng = make_rng(seed, "lpc")
    rho, tau = LPC_PRECISION
    pool = []
    for cfg in LPC_CONFIGS:
        for k in range(LPC_FRAMES_PER_CONFIG):
            spec = dict(adaptive_spec(rho, tau), lpc=cfg)
            pool.append(Stream(f"lpc={cfg} #{k}", ar2_signal(rng, LPC_FRAME),
                               None, spec))
    return pool


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    generate: Callable[[int], list[Stream]]


WORKLOADS = {w.name: w for w in (
    Workload(
        "fixed",
        "Long fixed-m streams: the Golomb write/parse loop plus vector "
        "rounding and mapping; no estimator or predictor runs.",
        gen_fixed),
    Workload(
        "adaptive",
        "Long adaptive streams whose theta changes each quarter: adds the "
        "per-symbol choice of m that the fixed workload bypasses.",
        gen_adaptive),
    Workload(
        "frames",
        "256-symbol frames, fixed and adaptive in turn: per-call container "
        "cost and header bits, which long streams hide.",
        gen_frames),
    Workload(
        "lpc",
        "4096-symbol LPC frames coded adaptive at 1/8: predictor fit and "
        "predict and the scalar decode loop dominate.",
        gen_lpc),
)}
