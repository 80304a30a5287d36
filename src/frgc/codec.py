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
    M_MAX,
    TAU_MAX,
    BitSource,
    CorruptStreamError,
    GolombParam,
    symbol_out_of_range,
)
from frgc.predictor import LpcConfig
from frgc.qmap import SYMBOL_MAX, SYMBOL_MIN, Precision

MAGIC = b"FRGC"
VERSION = 3

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

    def __post_init__(self) -> None:
        self.validate()

    @property
    def precision(self) -> Precision:
        return Precision(self.rho, self.tau)

    def validate(self) -> None:
        if self.mode not in _MODE_CODES:
            raise HeaderError(f"unknown mode {self.mode!r}")
        if not 1 <= self.rho <= TAU_MAX or not 1 <= self.tau <= TAU_MAX:
            raise HeaderError(f"rho/tau out of range: {self.rho}/{self.tau}")
        if self.rho > self.tau:
            raise HeaderError(f"rho must not exceed tau: {self.rho}/{self.tau}")
        if self.mode == MODE_RICE and (self.rho, self.tau) != (1, 1):
            raise HeaderError("rice mode requires rho=tau=1")
        if self.mode == MODE_ADAPTIVE:
            if self.m != 0:
                raise HeaderError("adaptive mode picks m itself; set m=0")
        elif not 1 <= self.m <= M_MAX:
            raise HeaderError(f"fixed mode needs m in [1, {M_MAX}], got {self.m}")
        if not 0 <= self.alphabet_q <= 0xFFFFFFFF:
            raise HeaderError(f"alphabet_q out of range: {self.alphabet_q}")
        if not 0 <= self.count <= 0xFFFFFFFFFFFFFFFF:
            raise HeaderError(f"count out of range: {self.count}")
        if self.raw_error_estimator and self.mode != MODE_ADAPTIVE:
            raise HeaderError("raw estimator flag only applies to adaptive mode")

    def pack(self) -> bytes:
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
        return cls(mode=_MODE_NAMES[mode_code], rho=rho, tau=tau, m=m,
                   alphabet_q=alphabet_q, count=count, lpc=lpc,
                   raw_error_estimator=bool(flags & _FLAG_RAW_ESTIMATOR))


def read_header(data: bytes) -> tuple[StreamHeader, int]:
    """Parse the header; returns it with the payload offset."""
    return StreamHeader.unpack(data), HEADER_SIZE


def decode_symbol(n: int, tau: int, g: GolombParam, src: BitSource) -> int:
    """Read one codeword and invert the mapping against the prediction n/tau."""
    value = src.read_unary() * g.m + src.read_minimal_binary(g)
    return qmap.unmap(value, n, tau)


def _symbol_range(alphabet_q: int) -> tuple[int, int]:
    """Inclusive bounds of the symbols a stream with this alphabet holds."""
    if alphabet_q:
        return 0, min(alphabet_q - 1, SYMBOL_MAX)
    return SYMBOL_MIN, SYMBOL_MAX


def _check_symbols(xs: np.ndarray, alphabet_q: int) -> None:
    if xs.size == 0:
        return
    lo, hi = _symbol_range(alphabet_q)
    smallest, largest = int(xs.min()), int(xs.max())
    if smallest < lo or largest > hi:
        raise ValueError(f"symbols outside [{lo}, {hi}]: saw [{smallest}, {largest}]")


def _check_decoded(symbols: np.ndarray, alphabet_q: int) -> None:
    """Refuse a decode holding a symbol encode_stream would have refused.

    The error names the first bad symbol.
    """
    lo, hi = _symbol_range(alphabet_q)
    if symbols.size and (symbols.min() < lo or symbols.max() > hi):
        t = int(np.argmax((symbols < lo) | (symbols > hi)))
        raise symbol_out_of_range(t, int(symbols[t]), lo, hi)


def _lpc_predictions(xs: list, cfg: LpcConfig) -> np.ndarray:
    """Per-symbol predictions from history only, as the decoder re-derives."""
    state = predictor.LpcState(cfg)
    preds = []
    for x in xs:
        preds.append(state.predict())
        state.push(x)
    return np.array(preds, dtype=np.float64)


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


def _prediction_array(predictions, n: int, mismatch=ValueError) -> np.ndarray:
    """The predictions as float64, all zero if None; a count that is not n
    raises mismatch."""
    if predictions is None:
        return np.zeros(n, dtype=np.float64)
    pred = np.ascontiguousarray(predictions, dtype=np.float64)
    if pred.ndim != 1:
        raise ValueError(f"expected 1-D predictions, got shape {pred.shape}")
    if pred.size != n:
        raise mismatch(f"expected {n} predictions, got {pred.size}")
    return pred


def _map_vector(xs: np.ndarray, numerators: np.ndarray, tau: int) -> np.ndarray:
    """Vectorized twin of qmap.map_residual over residual numerators."""
    # |tau*x| + |n| < 2**62 keeps tau*x - n and 2*(tau*x - n) in int64;
    # the maxima are compared as Python integers, so exactly (np.abs
    # would wrap x = -2**63 to itself).
    if xs.size and (tau * max(-int(xs.min()), int(xs.max()))
                    + int(np.abs(numerators).max())) >= 1 << 62:
        raise ValueError("prediction magnitude overflows the residual range")
    r = tau * xs - numerators
    two_r = 2 * r
    return np.where(r >= 0, two_r // tau, -(two_r // tau) - 1)


_unmap_vector = qmap.unmap_array  # the name the fixed path calls, which perfbench traces


def _estimator_trace(xs: np.ndarray, pred: np.ndarray, numerators: np.ndarray,
                     header: StreamHeader, collect_trace: bool = True):
    """The adaptive estimator's increment for each symbol, and its trace.

    An increment is |tau*x - n|, or |x - xhat| under the raw estimator.
    The trace, None unless collect_trace, lists (m, t, S) after each
    symbol: the m it was coded with, then the count and the sum after it.
    Each m follows from the symbols before it, so the encoder and the
    decoder derive the same trace here and no stream loop reports one.
    """
    raw = header.raw_error_estimator
    increments = np.abs(xs - pred) if raw else np.abs(header.tau * xs - numerators)
    if not collect_trace:
        return increments, None
    n = increments.size
    sums = _estcore.running_sums(0.0 if raw else 0, increments, raw)
    before = np.concatenate(([0], sums))[:-1]
    ms = _estcore.select_m_array(np.arange(n), before, 1 if raw else header.tau)
    return increments, list(zip(ms.tolist(), range(1, n + 1), sums.tolist()))


def encode_stream(xs, header: StreamHeader, predictions=None,
                  collect_trace: bool = False):
    """Encode symbols into a self-describing byte stream.

    Returns the bytes, or (bytes, trace) when collect_trace is set; the
    trace lists (m, t, S) after each symbol in adaptive mode and is None
    otherwise.  predictions must be None in lpc mode and defaults to
    all-zero predictions otherwise.  A symbol whose codeword would need a
    unary run over bitcoder.MAX_RUN bits, which decode_stream refuses,
    raises ValueError.
    """
    arr = np.asarray(xs, dtype=np.int64)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D symbol sequence, got shape {arr.shape}")
    n = int(arr.size)
    _check_symbols(arr, header.alphabet_q)
    header = replace(header, count=n)

    if header.lpc is not None:
        if predictions is not None:
            raise ValueError("lpc mode computes its own predictions")
        pred = _lpc_predictions(arr.tolist(), header.lpc)
    else:
        pred = _prediction_array(predictions, n)

    numerators = _round_predictions(pred, header.rho, header.tau)
    mapped = _map_vector(arr, numerators, header.tau)

    trace = None
    if header.mode == MODE_ADAPTIVE:
        increments, trace = _estimator_trace(arr, pred, numerators, header,
                                             collect_trace)
        payload, _ = _backend.adaptive_encode(
            mapped, increments, header.raw_error_estimator, header.tau)
    else:
        payload, _ = _backend.golomb_encode(mapped, header.m)

    data = header.pack() + payload
    if collect_trace:
        return data, trace
    return data


def _decode_lpc(payload: bytes, header: StreamHeader) -> tuple[list, list]:
    """Lpc-mode decode, symbol by symbol: the symbols and their predictions."""
    cfg = header.lpc
    prec = header.precision
    tau = header.tau
    adaptive = header.mode == MODE_ADAPTIVE
    raw = header.raw_error_estimator
    lo, hi = _symbol_range(header.alphabet_q)
    src = BitSource(payload)
    params: dict[int, GolombParam] = {}
    out: list[int] = []
    preds: list[float] = []
    state = predictor.LpcState(cfg)
    s_int = 0
    s_raw = 0.0
    for t in range(header.count):
        xhat = state.predict()
        preds.append(xhat)
        n = qmap.round_prediction(xhat, prec)
        if not adaptive:
            m = header.m
        elif raw:
            m = _estcore.select_m(t, s_raw)
        else:
            m = _estcore.select_m(t, s_int, tau)
        g = params.get(m)
        if g is None:
            g = params[m] = GolombParam(m)
        x = decode_symbol(n, tau, g, src)
        if not lo <= x <= hi:
            raise symbol_out_of_range(t, x, lo, hi)
        state.push(x)
        out.append(x)
        if not adaptive:
            continue
        if raw:
            s_raw += abs(x - xhat)
        else:
            s_int += abs(tau * x - n)
            if s_int > _estcore.EST_SATURATION:
                s_int = _estcore.EST_SATURATION
    return out, preds


def decode_stream(data: bytes, predictions=None, collect_trace: bool = False):
    """Invert encode_stream.

    External predictions must match the encoder's, one per symbol (a
    header count that disagrees raises HeaderError); lpc streams ignore
    the argument.  Returns the symbol list, or (symbols, trace) when
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
        out, preds = _decode_lpc(payload, header)
        if not collect_trace:
            return out
        symbols = np.array(out, dtype=np.int64)
        pred = np.array(preds, dtype=np.float64)
        numerators = _round_predictions(pred, header.rho, header.tau)
    else:
        pred = _prediction_array(predictions, n, HeaderError)
        numerators = _round_predictions(pred, header.rho, header.tau)
        if header.mode == MODE_ADAPTIVE:
            symbols = np.frombuffer(_backend.adaptive_decode(
                payload, n, numerators, pred, header.tau, header.raw_error_estimator,
                *_symbol_range(header.alphabet_q)), np.int64)
        else:
            values = _backend.golomb_decode(payload, n, header.m)
            symbols = _unmap_vector(np.frombuffer(values, np.int64),
                                    numerators, header.tau)
            _check_decoded(symbols, header.alphabet_q)
        out = symbols.tolist()
        if not collect_trace:
            return out

    if header.mode != MODE_ADAPTIVE:
        return out, None
    return out, _estimator_trace(symbols, pred, numerators, header)[1]
