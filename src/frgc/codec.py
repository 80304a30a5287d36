"""Stream encoder/decoder with fixed, adaptive, and rice modes.

A stream is [header][payload][CRC]: write_container writes it and
read_container reads it.  The header carries everything the decoder
needs except external predictions, which both sides must supply out of
band; in lpc mode predictions are recomputed from decoded history
instead.  It is the magic, the version, one kind byte (the mode code and
three flags) and LEB128 varints, each only where the kind uses it, with
the symbol count and the payload's byte length last.  The payload is the
Golomb codewords, padded with zero bits to a byte boundary; the CRC is
zlib's CRC-32 over the header and the payload, little-endian.

Adaptive mode picks the Golomb parameter for symbol t from the scale
estimate after symbol t-1 (cold start: m=1), so the decoder mirrors the
choice without side information.  The estimate is theta = e^(-t/S_t)
with S_t the running sum of absolute residuals; by default the rounded
residual |r|/tau is accumulated exactly as an integer numerator, and a
header flag switches to the raw float |x - xhat| sum.  The choice compares
ln theta with a table of log-boundaries, found from a closed-form guess
(_estcore.select_m), so no libm call is involved.
"""

from __future__ import annotations

import functools
import math
import zlib
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
VERSION = 4

MODE_FIXED = "fixed"
MODE_ADAPTIVE = "adaptive"
MODE_RICE = "rice"

_MODE_CODES = {MODE_FIXED: 0, MODE_ADAPTIVE: 1, MODE_RICE: 2}
_MODE_NAMES = {code: name for name, code in _MODE_CODES.items()}

# The kind byte after the version: the mode code in bits 0-1, then flags
# for the raw estimator, an lpc predictor and a written alphabet_q.
_KIND_MODE = 0x03
_KIND_RAW_ESTIMATOR = 0x04
_KIND_LPC = 0x08
_KIND_ALPHABET = 0x10

_COUNT_MAX = 0xFFFFFFFFFFFFFFFF
_CRC_BYTES = 4


def _field(name: str, top: int) -> tuple[str, int, int]:
    """A varint field: its name, its largest value, and the most bytes it
    takes, 7 value bits a byte."""
    return name, top, -(-top.bit_length() // 7)


_RHO, _TAU, _M = _field("rho", TAU_MAX), _field("tau", TAU_MAX), _field("m", M_MAX)
_ALPHABET = _field("alphabet_q", 0xFFFFFFFF)
_ORDER, _WINDOW, _REFIT = (_field(name, top) for name, top in zip(
    ("lpc order", "lpc window", "lpc refit interval"), LpcConfig.LIMITS))
_COUNT, _LENGTH = _field("count", _COUNT_MAX), _field("payload length", _COUNT_MAX)


class HeaderError(ValueError):
    """Malformed, truncated, or inconsistent stream header."""


class TruncatedStreamError(HeaderError, CorruptStreamError):
    """The stream is shorter than its header says, or the header's count
    needs more payload bits than its payload length gives.

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
        if not 0 <= self.count <= _COUNT_MAX:
            raise HeaderError(f"count out of range: {self.count}")
        if self.raw_error_estimator and self.mode != MODE_ADAPTIVE:
            raise HeaderError("raw estimator flag only applies to adaptive mode")

    @functools.cached_property
    def _prefix(self) -> bytes:
        """The header's bytes before its count, which no count changes:
        write_container builds them once per header."""
        kind = _MODE_CODES[self.mode]
        fields = [self.rho, self.tau]
        if self.mode != MODE_ADAPTIVE:
            fields.append(self.m)
        if self.raw_error_estimator:
            kind |= _KIND_RAW_ESTIMATOR
        if self.alphabet_q:
            kind |= _KIND_ALPHABET
            fields.append(self.alphabet_q)
        if self.lpc is not None:
            kind |= _KIND_LPC
            fields += (self.lpc.order, self.lpc.window, self.lpc.refit_interval)
        return MAGIC + bytes((VERSION, kind)) + b"".join(map(_varint, fields))


def _varint(value: int) -> bytes:
    """value >= 0 in unsigned LEB128: 7 bits a byte, the lowest first, and
    the top bit set on every byte but the last."""
    if value < 0x80:
        return _ONE_BYTE[value]
    if value < 0x4000:  # a frame's count or length
        return bytes((value & 0x7F | 0x80, value >> 7))
    out = bytearray()
    while value > 0x7F:
        out.append(value & 0x7F | 0x80)
        value >>= 7
    out.append(value)
    return bytes(out)


_ONE_BYTE = [bytes((value,)) for value in range(0x80)]


def _read_varint(data: bytes, pos: int, field: tuple[str, int, int]) -> tuple[int, int]:
    """(value, position after it) of field's varint at pos.  A varint that
    runs past the field's bytes or past the data, that ends in a zero byte
    after its first (an overlong form), or whose value passes the field's
    bound raises HeaderError."""
    name, top, size = field
    value = shift = 0
    for pos in range(pos, pos + size):
        try:
            byte = data[pos]
        except IndexError:
            raise HeaderError(f"truncated header: {len(data)} bytes end inside "
                              f"the {name}") from None
        value |= (byte & 0x7F) << shift
        if byte < 0x80:
            if byte == 0 and shift:
                raise HeaderError(f"overlong varint for the {name}")
            if value > top:
                raise HeaderError(f"{name} out of range: {value}")
            return value, pos + 1
        shift += 7
    raise HeaderError(f"the {name} runs past its {size} bytes")


def _kind_fields(kind: int) -> tuple:
    """The varint fields a header of this kind byte holds, in order."""
    fields = [_RHO, _TAU]
    if kind & _KIND_MODE != _MODE_CODES[MODE_ADAPTIVE]:
        fields.append(_M)
    if kind & _KIND_ALPHABET:
        fields.append(_ALPHABET)
    if kind & _KIND_LPC:
        fields += (_ORDER, _WINDOW, _REFIT)
    return (*fields, _COUNT, _LENGTH)


# every kind byte with a mode code: the others raise HeaderError
_KINDS = {kind: _kind_fields(kind) for kind in range(_KIND_ALPHABET << 1)
          if kind & _KIND_MODE in _MODE_NAMES}


@functools.lru_cache(maxsize=1024)
def _header(kind: int, values: tuple) -> StreamHeader:
    """The header of a kind byte and its fields' values but the payload
    length; frozen, so one is shared by every stream that has it."""
    mode = _MODE_NAMES[kind & _KIND_MODE]
    rho, tau, *rest, count = values
    m = 0 if mode == MODE_ADAPTIVE else rest.pop(0)
    alphabet_q = 0
    if kind & _KIND_ALPHABET:
        alphabet_q = rest.pop(0)
        if not alphabet_q:  # write_container clears the flag instead
            raise HeaderError("alphabet_q flagged but 0")
    lpc = None
    if rest:
        try:
            lpc = LpcConfig(*rest)
        except ValueError as exc:
            raise HeaderError(str(exc)) from exc
    return StreamHeader(mode=mode, rho=rho, tau=tau, m=m, alphabet_q=alphabet_q,
                        count=count, lpc=lpc,
                        raw_error_estimator=bool(kind & _KIND_RAW_ESTIMATOR))


def write_container(header: StreamHeader, payload: bytes, count: int | None = None) -> bytes:
    """The stream [header][payload][CRC] of header and payload.

    count, if given, is written in place of the header's own (encode_stream
    writes the symbols' count) and checked as validate checks the
    header's.  The header's bytes before the count are built once per
    header (StreamHeader._prefix), and the CRC-32 runs over the header's
    bytes and then the payload's, so neither is copied to compute it.
    """
    if count is None:
        count = header.count
    elif not 0 <= count <= _COUNT_MAX:
        raise HeaderError(f"count out of range: {count}")
    head = header._prefix + _varint(count) + _varint(len(payload))
    crc = zlib.crc32(payload, zlib.crc32(head))
    return head + payload + crc.to_bytes(_CRC_BYTES, "little")


def read_container(data: bytes) -> tuple[StreamHeader, memoryview]:
    """The header of the stream data and a view of its payload.

    The checks run in order: the magic and the version, then the header's
    fields (a count over the payload's bits raises TruncatedStreamError),
    then the payload length against the bytes present
    (TruncatedStreamError), then the CRC (CorruptStreamError), so no
    codeword is read from a stream that fails any of them.  Bytes after
    the CRC are ignored.
    """
    if data[:4] != MAGIC:
        raise HeaderError(f"bad magic {bytes(data[:4])!r}")
    if len(data) < 6:
        raise HeaderError(f"truncated header: {len(data)} bytes end before its kind byte")
    if data[4] != VERSION:
        raise HeaderError(f"unsupported version {data[4]}")
    kind = data[5]
    fields = _KINDS.get(kind)
    if fields is None:
        if kind & _KIND_MODE in _MODE_NAMES:
            raise HeaderError(f"unknown kind bits 0x{kind:02x}")
        raise HeaderError(f"unknown mode code {kind & _KIND_MODE}")
    values = []
    pos, size = 6, len(data)
    for field in fields:
        if pos < size and data[pos] < 0x80:  # one byte, within every field's bound
            values.append(data[pos])
            pos += 1
        else:
            value, pos = _read_varint(data, pos, field)
            values.append(value)
    length = values.pop()
    header = _header(kind, tuple(values))
    count = header.count
    if count > 8 * length:  # every codeword is at least one bit
        raise TruncatedStreamError(f"count {count} exceeds the {8 * length} payload bits")
    end = pos + length
    if len(data) < end + _CRC_BYTES:
        raise TruncatedStreamError(
            f"a {length}-byte payload and its CRC need {end + _CRC_BYTES} bytes, "
            f"the stream holds {len(data)}")
    view = memoryview(data)
    if zlib.crc32(view[:end]) != int.from_bytes(data[end:end + _CRC_BYTES], "little"):
        raise CorruptStreamError("CRC-32 mismatch: the stream is corrupt")
    return header, view[pos:end]


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
    there are none), which _map_vector's overflow bound takes as well.
    The rounding floor(tau * xhat / rho + 1/2) never falls as xhat rises,
    so the smallest and the largest prediction give the extreme
    numerators: both bounds are checked on those two before any
    prediction is scaled, in Python floats, which round as float64 does
    and overflow to inf without a warning.
    """
    lo, hi = float(pred.min(initial=0.0)), float(pred.max(initial=0.0))
    if not (math.isfinite(lo) and math.isfinite(hi)):  # NaN or +-inf
        raise ValueError("predictions must be finite")
    lo, hi = tau * lo / rho + 0.5, tau * hi / rho + 0.5
    # lo <= 1/2 <= hi, so the peak is -floor(lo) or floor(hi)
    if not (-2.0 ** 62 < lo and hi < 2.0 ** 62):
        raise ValueError("prediction magnitude overflows the residual range")
    peak = max(-math.floor(lo), math.floor(hi))
    if peak > ((1 << 62) - 1) // rho:  # so |rho*k| < 2**62
        raise ValueError("prediction magnitude overflows the residual range")
    scaled = tau * pred
    if rho != 1:
        scaled /= rho
    scaled += 0.5
    k = np.floor(scaled, out=scaled).astype(np.int64)
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
    as the symbols' (write_container), so no header is built here.  The
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

    data = write_container(header, payload, n)
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
    no view of the caller's buffer is kept.  read_container checks the
    header, the payload length and the CRC first.  The predictions are rounded
    _pure.BLOCK_SYMBOLS at a time, all of them before any codeword is
    read, so a bad prediction raises before any payload error.  A
    fixed-m stream's codewords are then unmapped and range-checked a
    block at a time, in place in the backend's output; no pass allocates
    a temporary the length of the stream.
    """
    # a view of a bytearray would keep it from being resized
    stream = data if isinstance(data, bytes) else memoryview(data).tobytes()
    header, payload = read_container(stream)
    n = header.count

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
