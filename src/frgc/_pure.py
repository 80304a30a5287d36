"""Pure-Python stream loops: the fallback backend.

Same contract and bit-exact output as frgc._kernels; used when the
compiled extension is unavailable or FRGC_PURE=1.

Contract (shared by both backends):

    golomb_encode(ms, m) -> (payload, nbits)
    golomb_decode(payload, count, m, max_run) -> list of mapped residuals
    adaptive_encode(ms, est_int, est_raw, tau, boundaries, collect_trace)
        -> (payload, nbits, trace | None)
    adaptive_decode(payload, count, pred_n, pred_x, rho, tau, boundaries,
                    raw_estimator, max_run, collect_trace)
        -> (symbols, trace | None)

``ms`` are the already-mapped residuals; ``est_int``/``est_raw`` the
per-symbol estimator increments (|residual numerator| / raw |x - xhat|);
``pred_n`` the rounded prediction numerators; ``boundaries`` is
``_estcore.LOG_BOUNDARIES``, which the loops here reach through
``_estcore.select_m``.  Trace entries are (m_t, t_after, s_after).
"""

from __future__ import annotations

from frgc._estcore import EST_SATURATION as _SAT, select_m
from frgc.bitcoder import BitSink, BitSource, GolombParam

BACKEND_NAME = "pure"


def golomb_encode(ms, m):
    g = GolombParam(m)
    sink = BitSink()
    unary = sink.write_unary
    binary = sink.write_minimal_binary
    for value in ms:
        j, k = divmod(value, m)
        unary(j)
        binary(k, g)
    return sink.finish(), sink.bit_length


def golomb_decode(payload, count, m, max_run):
    g = GolombParam(m)
    src = BitSource(payload, max_run)
    unary = src.read_unary
    binary = src.read_minimal_binary
    return [unary() * m + binary(g) for _ in range(count)]


def adaptive_encode(ms, est_int, est_raw, tau, boundaries, collect_trace):
    raw = est_raw is not None
    sink = BitSink()
    params = {}
    trace = [] if collect_trace else None
    t = 0
    s_int = 0
    s_raw = 0.0
    for i, value in enumerate(ms):
        m = select_m(t, s_raw) if raw else select_m(t, s_int, tau)
        g = params.get(m)
        if g is None:
            g = params[m] = GolombParam(m)
        j, k = divmod(value, m)
        sink.write_unary(j)
        sink.write_minimal_binary(k, g)
        t += 1
        if raw:
            s_raw += est_raw[i]
        else:
            s_int += est_int[i]
            if s_int > _SAT:
                s_int = _SAT
        if trace is not None:
            trace.append((m, t, s_raw if raw else s_int))
    return sink.finish(), sink.bit_length, trace


def adaptive_decode(payload, count, pred_n, pred_x, rho, tau, boundaries,
                    raw_estimator, max_run, collect_trace):
    raw = raw_estimator
    src = BitSource(payload, max_run)
    params = {}
    trace = [] if collect_trace else None
    out = []
    t = 0
    s_int = 0
    s_raw = 0.0
    for i in range(count):
        m = select_m(t, s_raw) if raw else select_m(t, s_int, tau)
        g = params.get(m)
        if g is None:
            g = params[m] = GolombParam(m)
        value = src.read_unary() * m + src.read_minimal_binary(g)
        n = pred_n[i]
        c = -((-2 * n) // tau)
        s = value + c
        x = s // 2 if s % 2 == 0 else (c - value - 1) // 2
        out.append(x)
        t += 1
        if raw:
            s_raw += abs(x - pred_x[i])
        else:
            s_int += abs(tau * x - n)
            if s_int > _SAT:
                s_int = _SAT
        if trace is not None:
            trace.append((m, t, s_raw if raw else s_int))
    return out, trace
