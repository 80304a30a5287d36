"""Micro-benchmark of the stream loops, pure Python vs compiled.

Bypasses the container and times the backend entry points directly on
one synthetic stream, so the numbers isolate the per-symbol loops the
extension exists for.
"""

from __future__ import annotations

import time

import numpy as np

from frgc import _estcore, _pure, analysis, codec, harness
from frgc.bitcoder import DEFAULT_MAX_RUN
from frgc.qmap import Precision

BENCH_THETA = 0.3
BENCH_PRECISION = Precision(1, 16)


def _backends():
    pairs = [("pure", _pure)]
    try:
        from frgc import _kernels
    except ImportError:
        return pairs
    return pairs + [("compiled", _kernels)]


def _best_rate(fn, n: int, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return n / best / 1e6


def run_bench(n: int = 200_000, seed: int = harness.DEFAULT_SEED,
              repeats: int = 3) -> list[tuple]:
    """Rows (backend, op, msymbols_per_s) for encode/decode, fixed+adaptive."""
    xs, preds = harness.gen_synthetic(BENCH_THETA, n, seed=seed)
    rho, tau = BENCH_PRECISION.rho, BENCH_PRECISION.tau
    pred_arr = np.asarray(preds, dtype=np.float64)
    numerators = codec._round_predictions(pred_arr, rho, tau)
    mapped = codec._map_vector(xs, numerators, tau).tolist()
    est_int = np.abs(tau * xs - numerators).tolist()
    pred_n = numerators.tolist()
    m = analysis.lookup_m(BENCH_THETA)
    boundaries = _estcore.LOG_BOUNDARIES

    rows = []
    for name, mod in _backends():
        fixed_payload, _ = mod.golomb_encode(mapped, m, DEFAULT_MAX_RUN)
        adaptive_payload, _, _ = mod.adaptive_encode(
            mapped, est_int, None, tau, boundaries, DEFAULT_MAX_RUN, False)
        ops = [
            ("encode fixed", lambda: mod.golomb_encode(
                mapped, m, DEFAULT_MAX_RUN)),
            ("decode fixed", lambda: mod.golomb_decode(
                fixed_payload, n, m, DEFAULT_MAX_RUN)),
            ("encode adaptive", lambda: mod.adaptive_encode(
                mapped, est_int, None, tau, boundaries, DEFAULT_MAX_RUN,
                False)),
            ("decode adaptive", lambda: mod.adaptive_decode(
                adaptive_payload, n, pred_n, None, tau, boundaries,
                False, DEFAULT_MAX_RUN, False)),
        ]
        for op, fn in ops:
            rows.append((name, op, _best_rate(fn, n, repeats)))
    return rows


def format_report(rows: list[tuple]) -> str:
    lines = [f"{'backend':<10} {'op':<18} {'Msym/s':>8}"]
    for name, op, rate in rows:
        lines.append(f"{name:<10} {op:<18} {rate:>8.2f}")
    return "\n".join(lines)
