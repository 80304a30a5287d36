"""Stream encoder/decoder with fixed, adaptive, and rice modes.

A stream is [header][bit payload][flush padding].  The header carries
everything the decoder needs except external predictions, which both
sides must supply out of band; in lpc mode predictions are recomputed
from decoded history instead.

Adaptive mode picks the Golomb parameter for symbol t from the scale
estimate after symbol t-1 (cold start: m=1), so the decoder mirrors the
choice without side information.  The estimate is theta = e^(-t/S_t)
with S_t the running sum of absolute residuals; by default the rounded
residual |r|/tau is accumulated exactly as an integer numerator, and a
header flag switches to the raw float |x - xhat| sum.  The choice compares
ln theta with a table of log-boundaries (_estcore.select_m), so no libm
call is involved.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace

import numpy as np

from frgc import _backend, _estcore, predictor, qmap
from frgc.bitcoder import (
    DEFAULT_MAX_RUN,
    BitSource,
    CorruptStreamError,
    GolombParam,
)
from frgc.predictor import LpcConfig
from frgc.qmap import SYMBOL_MAX, SYMBOL_MIN, Precision

MAGIC = b"FRGC"
VERSION = 2

MODE_FIXED = "fixed"
MODE_ADAPTIVE = "adaptive"
MODE_RICE = "rice"

_MODE_CODES = {MODE_FIXED: 0, MODE_ADAPTIVE: 1, MODE_RICE: 2}
_MODE_NAMES = {code: name for name, code in _MODE_CODES.items()}

_FLAG_RAW_ESTIMATOR = 0x01

# magic, version, mode, flags, rho, tau, m, alphabet_q, count,
# pred_kind, lpc order, lpc window, lpc refit interval
_HEADER = struct.Struct("<4sBBBHHHIQBBHH")
HEADER_SIZE = _HEADER.size


class HeaderError(ValueError):
    """Malformed, truncated, or inconsistent stream header."""


class TruncatedStreamError(HeaderError, CorruptStreamError):
    """The header's count needs more payload bits than the stream holds.

    Both a bad header and a short payload look like this, so it is both.
    """


@dataclass(frozen=True)
class StreamHeader:
    """Everything a decoder needs to mirror the encoder, minus predictions."""

    mode: str
    rho: int = 1
    tau: int = 16
    m: int = 0
    alphabet_q: int = 0
    count: int = 0
    lpc: LpcConfig | None = None
    raw_error_estimator: bool = False

    @property
    def precision(self) -> Precision:
        return Precision(self.rho, self.tau)

    def validate(self) -> None:
        if self.mode not in _MODE_CODES:
            raise HeaderError(f"unknown mode {self.mode!r}")
        if not 1 <= self.rho <= 0xFFFF or not 1 <= self.tau <= 0xFFFF:
            raise HeaderError(f"rho/tau out of range: {self.rho}/{self.tau}")
        if self.rho > self.tau:
            raise HeaderError(f"rho must not exceed tau: {self.rho}/{self.tau}")
        if self.mode == MODE_RICE and (self.rho, self.tau) != (1, 1):
            raise HeaderError("rice mode requires rho=tau=1")
        if self.mode == MODE_ADAPTIVE:
            if self.m != 0:
                raise HeaderError("adaptive mode picks m itself; set m=0")
        elif not 1 <= self.m <= 0xFFFF:
            raise HeaderError(f"fixed mode needs m in [1, 65535], got {self.m}")
        if not 0 <= self.alphabet_q <= 0xFFFFFFFF:
            raise HeaderError(f"alphabet_q out of range: {self.alphabet_q}")
        if not 0 <= self.count <= 0xFFFFFFFFFFFFFFFF:
            raise HeaderError(f"count out of range: {self.count}")
        if self.raw_error_estimator and self.mode != MODE_ADAPTIVE:
            raise HeaderError("raw estimator flag only applies to adaptive mode")

    def pack(self) -> bytes:
        self.validate()
        flags = _FLAG_RAW_ESTIMATOR if self.raw_error_estimator else 0
        if self.lpc is None:
            pred_kind, order, window, refit = 0, 0, 0, 0
        else:
            pred_kind = 1
            order = self.lpc.order
            window = self.lpc.window
            refit = self.lpc.refit_interval
        return _HEADER.pack(MAGIC, VERSION, _MODE_CODES[self.mode], flags,
                            self.rho, self.tau, self.m, self.alphabet_q,
                            self.count, pred_kind, order, window, refit)

    @classmethod
    def unpack(cls, data: bytes) -> "StreamHeader":
        if len(data) < HEADER_SIZE:
            raise HeaderError(f"truncated header: {len(data)} < {HEADER_SIZE} bytes")
        (magic, version, mode_code, flags, rho, tau, m, alphabet_q, count,
         pred_kind, order, window, refit) = _HEADER.unpack(data[:HEADER_SIZE])
        if magic != MAGIC:
            raise HeaderError(f"bad magic {magic!r}")
        if version != VERSION:
            raise HeaderError(f"unsupported version {version}")
        if mode_code not in _MODE_NAMES:
            raise HeaderError(f"unknown mode code {mode_code}")
        if flags & ~_FLAG_RAW_ESTIMATOR:
            raise HeaderError(f"unknown flag bits 0x{flags:02x}")
        if pred_kind == 0:
            lpc = None
        elif pred_kind == 1:
            try:
                lpc = LpcConfig(order, window, refit)
            except ValueError as exc:
                raise HeaderError(str(exc)) from exc
        else:
            raise HeaderError(f"unknown predictor kind {pred_kind}")
        header = cls(mode=_MODE_NAMES[mode_code], rho=rho, tau=tau, m=m,
                     alphabet_q=alphabet_q, count=count, lpc=lpc,
                     raw_error_estimator=bool(flags & _FLAG_RAW_ESTIMATOR))
        header.validate()
        return header


def read_header(data: bytes) -> tuple[StreamHeader, int]:
    """Parse the header; returns it with the payload offset."""
    return StreamHeader.unpack(data), HEADER_SIZE


def decode_symbol(n: int, tau: int, g: GolombParam, src: BitSource) -> int:
    """Read one codeword and invert the mapping against the prediction n/tau."""
    value = src.read_unary() * g.m + src.read_minimal_binary(g)
    return qmap.unmap(value, n, tau)


def _check_symbols(xs: np.ndarray, alphabet_q: int) -> None:
    if xs.size == 0:
        return
    lo = int(xs.min())
    hi = int(xs.max())
    if lo < SYMBOL_MIN or hi > SYMBOL_MAX:
        raise ValueError(
            f"symbols outside [{SYMBOL_MIN}, {SYMBOL_MAX}]: saw [{lo}, {hi}]")
    if alphabet_q and (lo < 0 or hi >= alphabet_q):
        raise ValueError(
            f"symbols outside declared alphabet [0, {alphabet_q}): saw [{lo}, {hi}]")


def _lpc_prediction(history, t: int, cfg: LpcConfig, coeffs):
    """(prediction of symbol t from history[:t], coefficients to carry on).

    The one LPC schedule of encoder and decoder: position 0 predicts 0.0
    and positions before the first full window repeat the previous
    sample; from warmup on, coefficients are refit every refit_interval
    symbols (a singular window keeps the previous ones).
    """
    if t == 0:
        return 0.0, coeffs
    if t < cfg.warmup:
        return float(history[t - 1]), coeffs
    if (t - cfg.warmup) % cfg.refit_interval == 0:
        coeffs = predictor.fit(history, cfg, t, previous=coeffs)
    return predictor.predict_at(history, coeffs, t), coeffs


def _lpc_predictions(xs: list, cfg: LpcConfig) -> list[float]:
    """Per-symbol predictions from history only, as the decoder re-derives."""
    preds = []
    coeffs = None
    for t in range(len(xs)):
        xhat, coeffs = _lpc_prediction(xs, t, cfg, coeffs)
        preds.append(xhat)
    return preds


def _round_predictions(pred: np.ndarray, rho: int, tau: int) -> np.ndarray:
    """Vectorized twin of qmap.round_prediction; returns numerators."""
    scaled = tau * pred / rho + 0.5
    if not np.all(np.isfinite(scaled)):
        raise ValueError("predictions must be finite")
    floored = np.floor(scaled)
    if np.any(np.abs(floored) >= 2.0 ** 62):
        raise ValueError("prediction magnitude overflows the residual range")
    k = floored.astype(np.int64)
    if np.any(np.abs(k) > ((1 << 62) - 1) // rho):  # so |rho*k| < 2**62
        raise ValueError("prediction magnitude overflows the residual range")
    return k * rho


def _prediction_array(predictions, n: int) -> np.ndarray:
    if predictions is None:
        return np.zeros(n, dtype=np.float64)
    pred = np.asarray(predictions, dtype=np.float64)
    if pred.shape != (n,):
        raise ValueError(f"expected {n} predictions, got shape {pred.shape}")
    return pred


def _map_vector(xs: np.ndarray, numerators: np.ndarray, tau: int) -> np.ndarray:
    """Vectorized twin of qmap.map_residual over residual numerators."""
    # |tau*x| + |n| < 2**62 keeps tau*x - n and 2*(tau*x - n) in int64;
    # the maxima are compared as Python integers, so exactly.
    if xs.size and (tau * int(np.abs(xs).max())
                    + int(np.abs(numerators).max())) >= 1 << 62:
        raise ValueError("prediction magnitude overflows the residual range")
    r = tau * xs - numerators
    two_r = 2 * r
    return np.where(r >= 0, two_r // tau, -(two_r // tau) - 1)


def _unmap_vector(values: np.ndarray, numerators: np.ndarray,
                  tau: int) -> np.ndarray:
    """Vectorized twin of qmap.unmap."""
    c = -((-2 * numerators) // tau)
    s = values + c
    return np.where(s % 2 == 0, s // 2, (c - values - 1) // 2)


def encode_stream(xs, header: StreamHeader, predictions=None,
                  collect_trace: bool = False):
    """Encode symbols into a self-describing byte stream.

    Returns the bytes, or (bytes, trace) when collect_trace is set; the
    trace lists (m, t, S) after each symbol in adaptive mode and is None
    otherwise.  predictions must be None in lpc mode and defaults to
    all-zero predictions otherwise.  A symbol whose codeword would need a
    unary run over DEFAULT_MAX_RUN bits, which decode_stream refuses,
    raises ValueError.
    """
    header.validate()
    arr = np.asarray(xs, dtype=np.int64)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D symbol sequence, got shape {arr.shape}")
    n = int(arr.size)
    _check_symbols(arr, header.alphabet_q)
    header = replace(header, count=n)

    if header.lpc is not None:
        if predictions is not None:
            raise ValueError("lpc mode computes its own predictions")
        pred = np.asarray(_lpc_predictions(arr.tolist(), header.lpc),
                          dtype=np.float64)
    else:
        pred = _prediction_array(predictions, n)

    numerators = _round_predictions(pred, header.rho, header.tau)
    mapped = _map_vector(arr, numerators, header.tau)

    trace = None
    if header.mode == MODE_ADAPTIVE:
        if header.raw_error_estimator:
            est_int = None
            est_raw = np.abs(arr - pred).tolist()
        else:
            est_int = np.abs(header.tau * arr - numerators).tolist()
            est_raw = None
        payload, _, trace = _backend.adaptive_encode(
            mapped.tolist(), est_int, est_raw, header.tau, DEFAULT_MAX_RUN,
            collect_trace)
    else:
        payload, _ = _backend.golomb_encode(mapped.tolist(), header.m,
                                            DEFAULT_MAX_RUN)

    data = header.pack() + payload
    if collect_trace:
        return data, trace
    return data


def _decode_lpc(payload: bytes, header: StreamHeader, collect_trace: bool):
    """Sequential decode for lpc mode: predictions depend on decoded history."""
    cfg = header.lpc
    prec = header.precision
    tau = header.tau
    adaptive = header.mode == MODE_ADAPTIVE
    raw = header.raw_error_estimator
    src = BitSource(payload, DEFAULT_MAX_RUN)
    params: dict[int, GolombParam] = {}
    out: list[int] = []
    coeffs = None
    t_est = 0
    s_int = 0
    s_raw = 0.0
    trace = [] if (collect_trace and adaptive) else None
    for t in range(header.count):
        xhat, coeffs = _lpc_prediction(out, t, cfg, coeffs)
        n = qmap.round_prediction(xhat, prec)
        if not adaptive:
            m = header.m
        elif raw:
            m = _estcore.select_m(t_est, s_raw)
        else:
            m = _estcore.select_m(t_est, s_int, tau)
        g = params.get(m)
        if g is None:
            g = params[m] = GolombParam(m)
        x = decode_symbol(n, tau, g, src)
        out.append(x)
        if adaptive:
            t_est += 1
            if raw:
                s_raw += abs(x - xhat)
            else:
                s_int += abs(tau * x - n)
                if s_int > _estcore.EST_SATURATION:
                    s_int = _estcore.EST_SATURATION
            if trace is not None:
                trace.append((m, t_est, s_raw if raw else s_int))
    return out, trace


def decode_stream(data: bytes, predictions=None, collect_trace: bool = False):
    """Invert encode_stream.

    External predictions must match the encoder's; lpc streams ignore the
    argument.  Returns the symbol list, or (symbols, trace) when
    collect_trace is set.
    """
    header, offset = read_header(data)
    payload = bytes(data[offset:])
    n = header.count
    if n > 8 * len(payload):  # every codeword is at least one bit
        raise TruncatedStreamError(
            f"count {n} exceeds the {8 * len(payload)} payload bits")

    if header.lpc is not None:
        if predictions is not None:
            raise ValueError("lpc mode recomputes predictions from history")
        out, trace = _decode_lpc(payload, header, collect_trace)
        if collect_trace:
            return out, trace
        return out

    pred = _prediction_array(predictions, n)
    numerators = _round_predictions(pred, header.rho, header.tau)

    trace = None
    if header.mode == MODE_ADAPTIVE:
        pred_x = pred.tolist() if header.raw_error_estimator else None
        out, trace = _backend.adaptive_decode(
            payload, n, numerators.tolist(), pred_x, header.tau,
            header.raw_error_estimator, DEFAULT_MAX_RUN, collect_trace)
    else:
        values = _backend.golomb_decode(payload, n, header.m, DEFAULT_MAX_RUN)
        symbols = _unmap_vector(np.asarray(values, dtype=np.int64),
                                numerators, header.tau)
        out = symbols.tolist()

    if collect_trace:
        return out, trace
    return out
