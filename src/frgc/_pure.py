"""Pure-Python stream loops: the reference and the fallback backend.

frgc._kernels, compiled from the hand-written _kernels.c, has the same
contract and bit-exact output; frgc._backend uses it when it imports and
this module otherwise.

Contract (shared by both backends):

    golomb_encode(ms, m, max_run) -> (payload, nbits)
    golomb_decode(payload, count, m, max_run) -> list of mapped residuals
    adaptive_encode(ms, est_int, est_raw, tau, max_run, collect_trace)
        -> (payload, nbits, trace | None)
    adaptive_decode(payload, count, pred_n, pred_x, tau, raw_estimator,
                    max_run, collect_trace) -> (symbols, trace | None)

``ms`` are the already-mapped residuals (non-negative); ``est_int``/
``est_raw`` the per-symbol estimator increments (|residual numerator| /
raw |x - xhat|, non-negative); ``pred_n`` the rounded prediction
numerators, below 2**62 in magnitude.  The adaptive m is
``_estcore.select_m`` over ``_estcore.LOG_BOUNDARIES``, which the
compiled module copies once, when it is imported.  A quotient above
``max_run`` raises ValueError on encode and CorruptStreamError on
decode, so the encoder writes no codeword the decoder would refuse.
Sequences may be lists, tuples or numpy arrays.  Trace entries are
(m_t, t_after, s_after).

The compiled loops also raise ValueError for m > 2**32 and, on decode,
for a max_run with (max_run + 1) * m > 2**62 (in adaptive mode
(max_run + 1) * 64 * tau > 2**62), which keeps their 64-bit arithmetic
exact; the codec's header limits and DEFAULT_MAX_RUN stay far inside
both.
"""

from __future__ import annotations

from frgc._estcore import EST_SATURATION as _SAT, select_m
from frgc.bitcoder import BitSink, BitSource, GolombParam

BACKEND_NAME = "pure"


def _quotient_too_long(j, max_run):
    return ValueError(f"quotient {j} exceeds the {max_run}-bit unary limit")


def golomb_encode(ms, m, max_run):
    g = GolombParam(m)
    sink = BitSink()
    unary = sink.write_unary
    binary = sink.write_minimal_binary
    for value in ms:
        j, k = divmod(value, m)
        if j > max_run:
            raise _quotient_too_long(j, max_run)
        unary(j)
        binary(k, g)
    return sink.finish(), sink.bit_length


def golomb_decode(payload, count, m, max_run):
    g = GolombParam(m)
    src = BitSource(payload, max_run)
    unary = src.read_unary
    binary = src.read_minimal_binary
    return [unary() * m + binary(g) for _ in range(count)]


def adaptive_encode(ms, est_int, est_raw, tau, max_run, collect_trace):
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
        if j > max_run:
            raise _quotient_too_long(j, max_run)
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


def adaptive_decode(payload, count, pred_n, pred_x, tau, raw_estimator,
                    max_run, collect_trace):
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
