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

import math
import struct
from dataclasses import dataclass

import numpy as np

from frgc import _backend, _estcore, _pure, predictor, qmap
from frgc.bitcoder import (
    M_MAX,
    TAU_MAX,
    CorruptStreamError,
    GolombParam,
    check_symbol_range,
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

    def pack(self, count: int | None = None) -> bytes:
        """The header's bytes; count, if given, is written in place of
        the header's own (encode_stream writes the symbols' count) and
        checked as validate checks the header's."""
        flags = _FLAG_RAW_ESTIMATOR if self.raw_error_estimator else 0
        if self.lpc is None:
            pred_kind, order, window, refit = 0, 0, 0, 0
        else:
            pred_kind = 1
            order = self.lpc.order
            window = self.lpc.window
            refit = self.lpc.refit_interval
        if count is None:
            count = self.count
        elif not 0 <= count <= 0xFFFFFFFFFFFFFFFF:
            raise HeaderError(f"count out of range: {count}")
        return _HEADER.pack(MAGIC, VERSION, _MODE_CODES[self.mode], flags,
                            self.rho, self.tau, self.m, self.alphabet_q,
                            count, pred_kind, order, window, refit)

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
            if order or window or refit:  # pack writes zeros there
                raise HeaderError("predictor fields set with no predictor: "
                                  f"order {order}, window {window}, refit {refit}")
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


def decode_symbol(g: GolombParam, reader: _pure.CodewordReader,
                  pos: int) -> tuple[int, int]:
    """(mapped value, the bit after it) of the codeword at bit pos under g."""
    return reader.read(pos, g)


def _symbol_range(alphabet_q: int) -> tuple[int, int]:
    """Inclusive bounds of the symbols a stream with this alphabet holds."""
    if alphabet_q:
        return 0, min(alphabet_q - 1, SYMBOL_MAX)
    return SYMBOL_MIN, SYMBOL_MAX


def _check_symbols(xs: np.ndarray, alphabet_q: int) -> tuple[int, int] | None:
    """The smallest and largest symbol, as Python ints (None if there are
    none); raises ValueError if either lies outside the alphabet."""
    if xs.size == 0:
        return None
    lo, hi = _symbol_range(alphabet_q)
    smallest, largest = int(xs.min()), int(xs.max())
    if smallest < lo or largest > hi:
        raise ValueError(f"symbols outside [{lo}, {hi}]: saw [{smallest}, {largest}]")
    return smallest, largest


# Per-symbol predictions from history only, as the decoder re-derives
# them, a whole array at a time; the name perfbench traces.
_lpc_predictions = predictor.batch_predictions


def _round_predictions(pred: np.ndarray, rho: int, tau: int) -> tuple[np.ndarray, int]:
    """Vectorized twin of qmap.round_prediction over float64 predictions.

    Returns the numerators and the largest of their magnitudes (0 if
    there are none), which _map_vector's overflow bound takes as well:
    one reduction bounds both.
    """
    scaled = tau * pred
    if rho != 1:
        scaled /= rho
    scaled += 0.5
    floored = np.floor(scaled, out=scaled)
    # the floors are whole floats, so the largest magnitude is exact; NaN
    # and inf fail the bound as an overflow does, and only then is the
    # failure told apart
    peak = np.abs(floored).max(initial=0.0)
    if not peak < 2.0 ** 62:
        if not np.isfinite(floored).all():
            raise ValueError("predictions must be finite")
        raise ValueError("prediction magnitude overflows the residual range")
    peak = int(peak)
    if peak > ((1 << 62) - 1) // rho:  # so |rho*k| < 2**62
        raise ValueError("prediction magnitude overflows the residual range")
    k = floored.astype(np.int64)
    if rho != 1:
        k *= rho
    return k, rho * peak


def _prediction_array(predictions, n: int, mismatch=ValueError) -> np.ndarray:
    """The predictions as float64, all zero if None; a count that is not n
    raises mismatch.  Only bool, integer and float predictions are taken:
    the cast would parse strings and fail on complex numbers."""
    if predictions is None:
        return np.zeros(n, dtype=np.float64)
    pred = np.asarray(predictions)
    if pred.dtype.kind not in "biuf":
        raise ValueError(f"expected real predictions, got dtype {pred.dtype}")
    pred = np.ascontiguousarray(pred, dtype=np.float64)
    if pred.ndim != 1:
        raise ValueError(f"expected 1-D predictions, got shape {pred.shape}")
    if pred.size != n:
        raise mismatch(f"expected {n} predictions, got {pred.size}")
    return pred


def _map_vector(xs: np.ndarray, numerators: np.ndarray, tau: int, peak: int,
                extremes: tuple[int, int] | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized twin of qmap.map_residual over residual numerators.

    Returns the mapped values and the magnitudes |tau*x - n| of the
    residual numerators they fold, which are the integer estimator's
    increments.  peak is the numerators' largest magnitude, which
    _round_predictions returns with them, and extremes are xs's smallest
    and largest value when the caller has them already (_check_symbols),
    so that no second pass finds them.
    """
    # |tau*x| + |n| < 2**62 keeps tau*x - n and 2*(tau*x - n) in int64;
    # the maxima are compared as Python integers, so exactly (np.abs
    # would wrap x = -2**63 to itself).
    if xs.size:
        smallest, largest = extremes or (int(xs.min()), int(xs.max()))
        if tau * max(-smallest, largest) + peak >= 1 << 62:
            raise ValueError("prediction magnitude overflows the residual range")
    # r = tau*x - n is formed once.  The fold is floor(2r/tau) where r >= 0
    # and -floor(2r/tau) - 1 = floor((2|r| - 1)/tau) where r < 0, so with
    # s = r >> 63 (-1 where r < 0, else 0) it is (2|r| + s) // tau
    magnitudes = tau * xs - numerators
    q = magnitudes >> 63
    np.abs(magnitudes, out=magnitudes)
    q += magnitudes
    q += magnitudes
    q //= tau
    return q, magnitudes


_unmap_vector = qmap.unmap_array  # the name the fixed path calls, which perfbench traces


def _estimator_trace(xs: np.ndarray, pred: np.ndarray, magnitudes: np.ndarray | None,
                     header: StreamHeader, collect_trace: bool = True):
    """The adaptive estimator's increment for each symbol, and its trace.

    An increment is |tau*x - n|, given as magnitudes (which _map_vector
    returns), or |x - xhat| under the raw estimator, which takes no
    magnitudes (they may be None).  The trace, None
    unless collect_trace, lists (m, t, S) after each symbol: the m it was
    coded with, then the count and the sum after it.  Each m follows from
    the symbols before it, so the encoder and the decoder derive the same
    trace here and no stream loop reports one.
    """
    raw = header.raw_error_estimator
    increments = np.abs(xs - pred) if raw else magnitudes
    if not collect_trace:
        return increments, None
    sums, ms = _estcore.run(0, 0, increments, header.tau, raw)
    return increments, list(zip(ms[:-1].tolist(), range(1, sums.size + 1),
                                sums.tolist()))


def encode_stream(xs, header: StreamHeader, predictions=None,
                  collect_trace: bool = False):
    """Encode symbols into a self-describing byte stream.

    Returns the bytes, or (bytes, trace) when collect_trace is set; the
    trace lists (m, t, S) after each symbol in adaptive mode and is None
    otherwise.  predictions must be None in lpc mode and defaults to
    all-zero predictions otherwise.  A symbol whose codeword would need a
    unary run over bitcoder.MAX_RUN bits, which decode_stream refuses,
    raises ValueError.

    The header was validated when it was built, and its count is written
    as the symbols' (StreamHeader.pack), so no header is built here.  The
    symbols' extremes (from the range check) and the numerators' largest
    magnitude (from the rounding) bound the mapping, which forms each
    residual numerator tau*x - n once: the mapped values and the integer
    estimator's increments both come from it.
    """
    arr = np.asarray(xs)
    if arr.size and arr.dtype.kind not in "biu":  # a cast would change the symbols
        ints = np.array(xs, dtype=object)  # Python ints past int64 fail the range check
        if not all(isinstance(x, (int, np.integer)) for x in ints.flat):
            raise ValueError(f"expected integer symbols, got dtype {arr.dtype}")
        arr = ints
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D symbol sequence, got shape {arr.shape}")
    extremes = _check_symbols(arr, header.alphabet_q)  # before the cast, which would wrap uint64
    arr = arr.astype(np.int64, copy=False)
    n = int(arr.size)

    if header.lpc is not None:
        if predictions is not None:
            raise ValueError("lpc mode computes its own predictions")
        pred = _lpc_predictions(arr, header.lpc)
    else:
        pred = _prediction_array(predictions, n)

    numerators, peak = _round_predictions(pred, header.rho, header.tau)
    mapped, magnitudes = _map_vector(arr, numerators, header.tau, peak, extremes)

    trace = None
    if header.mode == MODE_ADAPTIVE:
        increments, trace = _estimator_trace(arr, pred, magnitudes, header,
                                             collect_trace)
        payload, _ = _backend.adaptive_encode(
            mapped, increments, header.raw_error_estimator, header.tau)
    else:
        payload, _ = _backend.golomb_encode(mapped, header.m)

    data = header.pack(n) + payload
    if collect_trace:
        return data, trace
    return data


def _decode_lpc(payload, header: StreamHeader) -> list:
    """Lpc-mode decode: the symbols, with no list of their predictions
    (a traced decode takes those from _lpc_predictions).

    Symbol t's prediction is fit from the symbols before it, so symbols
    are decoded in order, one loop step each: LpcState.span gives the
    coefficients in force and the position of the next refit.  A symbol
    is predicted in predict_at's order (a float sum left to right from
    0.0, never sum(), which compensates) and rounded and unmapped with
    qmap's operations written out.  Its codeword comes from the window
    in use, a run of codewords parsed under m (_pure.parse_ahead), or,
    past the window's end, is the window's trailing error, raised under
    the m the window was parsed with; or else decode_symbol reads it
    alone through a _pure.CodewordReader, as _pure.adaptive_decode's
    cold start does.  A window is parsed once the last is used up and m
    has held for ``settle`` symbols: _pure.SETTLE_SYMBOLS in adaptive
    mode, 0 in fixed mode, where held stays 0 and parse_ahead reads a
    fixed m.  m switches where ln theta_hat leaves m's interval
    (_estcore.m_interval; select_m runs only there), and the window is
    dropped.  The bit position is taken from the window's offsets only
    where the loop leaves a window.
    """
    rho, tau = header.rho, header.tau
    count = header.count
    adaptive = header.mode == MODE_ADAPTIVE
    raw = header.raw_error_estimator
    scale = 1 if raw else tau  # select_m's tau
    select_m, m_interval = _estcore.select_m, _estcore.m_interval
    saturation = _estcore.EST_SATURATION
    settle = _pure.SETTLE_SYMBOLS if adaptive else 0
    isfinite, floor = math.isfinite, math.floor
    lo, hi = _symbol_range(header.alphabet_q)
    data = np.frombuffer(payload, np.uint8)
    reader = _pure.CodewordReader(data)
    state = predictor.LpcState(header.lpc)
    history = state.history
    append = history.append
    span = state.span
    s = 0.0 if raw else 0
    m = 1 if adaptive else header.m
    g = _pure._golomb(m)
    low, high = m_interval(1)  # of adaptive mode's first m
    held = 0  # symbols decoded under m since it last changed
    pos = run_pos = 0  # the next codeword's bit, and the bit where m last changed
    # the window in use: its codewords, the bit after each, their number,
    # the error after them, and the index of the next one to use
    values: list[int] = []
    ends: list[int] = []
    size = k = 0
    error = None
    coeffs, stop = span()
    for t in range(count):
        if t == stop:
            coeffs, stop = span()
        xhat = 0.0
        i = 0
        for c in coeffs:
            i -= 1
            xhat += c * history[i]
        if not isfinite(xhat):
            raise ValueError(f"prediction must be finite, got {xhat!r}")
        n = rho * floor(tau * xhat / rho + 0.5)
        if k == size and error is None and held >= settle:
            if k:
                pos = ends[-1]
            parsed, offsets, error = _pure.parse_ahead(data, pos, g, count - t,
                                                       held, pos - run_pos)
            values, ends = parsed.tolist(), (offsets + pos).tolist()
            size, k = len(values), 0
        if k < size:
            v = values[k]
            k += 1
        elif error is not None:
            raise error
        else:
            v, pos = decode_symbol(g, reader, pos)
        # the parity of v + ceil(2n/tau) gives the side of n/tau
        q = -(-2 * n // tau)
        x = v + q
        x = (q - v - 1) >> 1 if x & 1 else x >> 1
        if not lo <= x <= hi:
            raise symbol_out_of_range(t, x, lo, hi)
        append(x)
        if not adaptive:
            continue
        if raw:
            s += abs(x - xhat)
        else:
            s += abs(tau * x - n)
            if s > saturation:
                s = saturation
        # m holds while ln theta_hat stays in its interval (s is 0 only at m = 1)
        if s > 0 and not low < -((t + 1) * scale) / float(s) <= high:
            m2 = select_m(t + 1, s, scale)
            if m2 != m:
                if k:
                    pos = ends[k - 1]
                m, g, held, run_pos = m2, _pure._golomb(m2), 0, pos
                low, high = m_interval(m2)
                size, k, error = 0, 0, None
                continue
        held += 1
    return history[len(history) - count:]


def decode_stream(data: bytes, predictions=None, collect_trace: bool = False):
    """Invert encode_stream.

    External predictions must match the encoder's, one per symbol (a
    header count that disagrees raises HeaderError); lpc streams ignore
    the argument.  Returns the symbol list, or (symbols, trace) when
    collect_trace is set.  A traced adaptive lpc decode predicts the
    decoded symbols again with _lpc_predictions, as the encoder does.

    data is any buffer (a str or a list raises TypeError), read as bytes,
    whatever its items: the header and the payload both come from data
    itself when it is bytes, and from one copy of any other buffer, so
    no view of the caller's buffer is kept.  The predictions are rounded
    _pure.BLOCK_SYMBOLS at a time, all of them before any codeword is
    read, so a bad prediction raises before any payload error.  A
    fixed-m stream's codewords are then unmapped and range-checked a
    block at a time, in place in the backend's output; no pass allocates
    a temporary the length of the stream.
    """
    # a view of a bytearray would keep it from being resized
    stream = data if isinstance(data, bytes) else memoryview(data).tobytes()
    header, offset = read_header(stream)
    payload = memoryview(stream)[offset:]
    n = header.count
    if n > 8 * len(payload):  # every codeword is at least one bit
        raise TruncatedStreamError(
            f"count {n} exceeds the {8 * len(payload)} payload bits")

    if header.lpc is not None:
        if predictions is not None:
            raise ValueError("lpc mode recomputes predictions from history")
        out = _decode_lpc(payload, header)
    else:
        pred = _prediction_array(predictions, n, HeaderError)
        block = _pure.BLOCK_SYMBOLS
        # every prediction is rounded, and checked, before any codeword is read
        numerators = np.empty(n, np.int64)
        for lo in range(0, n, block):
            numerators[lo:lo + block] = _round_predictions(
                pred[lo:lo + block], header.rho, header.tau)[0]
        if header.mode == MODE_ADAPTIVE:
            symbols = np.frombuffer(_backend.adaptive_decode(
                payload, n, numerators, pred, header.tau, header.raw_error_estimator,
                *_symbol_range(header.alphabet_q)), np.int64)
        else:
            # the decoder's bytearray is writable: unmap into it
            symbols = np.frombuffer(_backend.golomb_decode(payload, n, header.m),
                                    np.int64)
            lo, hi = _symbol_range(header.alphabet_q)
            for start in range(0, n, block):
                values = symbols[start:start + block]
                values[:] = _unmap_vector(values, numerators[start:start + block],
                                          header.tau)
                check_symbol_range(values, start, lo, hi)
        out = symbols.tolist()

    if not collect_trace:
        return out
    if header.mode != MODE_ADAPTIVE:
        return out, None
    if header.lpc is not None:
        symbols = np.array(out, dtype=np.int64)
        pred = _lpc_predictions(symbols, header.lpc)
        numerators = _round_predictions(pred, header.rho, header.tau)[0]
    magnitudes = (None if header.raw_error_estimator
                  else np.abs(header.tau * symbols - numerators))
    return out, _estimator_trace(symbols, pred, magnitudes, header)[1]
