"""Stream loops in Python and numpy: the reference and the fallback backend.

frgc._kernels, compiled from the hand-written _kernels.c, has the same
contract and bit-exact output; frgc._backend uses it when it imports and
this module otherwise.

Contract (shared by both backends):

    golomb_encode(ms, m) -> (payload, nbits)
    golomb_decode(payload, count, m) -> mapped residuals
    adaptive_encode(ms, increments, raw, tau) -> (payload, nbits)
    adaptive_decode(payload, count, pred_n, pred_x, tau, raw, lo, hi) -> symbols

Arrays pass as buffers of native 8-byte values, C-contiguous: int64, or
float64 for the raw estimator's ``increments`` and ``pred_x``.  Both
backends read the bytes alone (np.frombuffer here, ``y*`` there), so a
buffer that is not C-contiguous, not whole values, or shorter than
``len(ms)`` (``count`` on decode) raises ValueError, and a list
TypeError.  The decoders fill and return a bytearray of ``count`` int64
values.  ``ms`` are the mapped residuals (non-negative); ``increments``
the estimator's per-symbol |residual numerator| (int64) or, when
``raw``, |x - xhat| (float64), non-negative; ``pred_n`` the rounded
prediction numerators, below 2**62 in magnitude; ``pred_x`` the
predictions, read only when ``raw``.  The adaptive m is
``_estcore.select_m`` over ``_estcore.LOG_BOUNDARIES``, which the
compiled module copies once, when it is imported.  adaptive_decode
raises CorruptStreamError for the first symbol outside [lo, hi].  No
loop reports its m: a stream's m sequence is a function of its symbols
and predictions, which the codec derives (collect_trace).

The limits are bitcoder's format constants, which the compiled module
reads at import.  A quotient above MAX_RUN raises ValueError on encode
and CorruptStreamError on decode, so the encoder writes no codeword the
decoder would refuse; m outside [1, M_MAX] or tau outside [1, TAU_MAX]
raises ValueError.  The compiled module refuses to import unless
(MAX_RUN + 1) * M_MAX * TAU_MAX <= 2**62, so its 64-bit decode
arithmetic stays exact.

Here golomb_encode, golomb_decode and adaptive_encode work on whole
arrays: every codeword of a fixed-m stream depends on its own symbol
only, and the encoder knows every adaptive m in advance (the running
sums give them all at once: _estcore.running_sums, select_m_array).  The encoders take
BLOCK_SYMBOLS symbols at a time and pack at most BLOCK_BITS bits at a
time; the decoders read WINDOW_BITS payload bits at a time, growing a
window only to fit one codeword of at most MAX_RUN + ceil(lg m) + 1
bits.  So, besides its input and output, a call holds a bounded amount
of memory, whatever the stream's length.

adaptive_decode cannot know an m before the symbols ahead of it, but m
seldom changes, so it guesses: once m has held for SETTLE_SYMBOLS
symbols, it parses a window of codewords under that m as golomb_decode
does (at most WINDOW_BITS of them, all a window's bits can hold), runs
the estimator over the symbols they unmap to, and keeps them up to the
first whose successor select_m gives another m (_speculate).
Until then, and for a codeword longer than a window, it reads one
codeword at a time.
"""

from __future__ import annotations

import functools

import numpy as np

from frgc._estcore import (
    EST_SATURATION as _SAT,
    running_sums,
    select_m,
    select_m_array,
)
from frgc.bitcoder import (
    M_MAX,
    MAX_RUN,
    TAU_MAX,
    CorruptStreamError,
    GolombParam,
    codeword_fields,
    symbol_out_of_range,
)
from frgc.qmap import unmap_array

BACKEND_NAME = "pure"

BLOCK_SYMBOLS = 1 << 11  # symbols split at a time
BLOCK_BITS = 1 << 16     # payload bits packed at a time (or one longer codeword)
WINDOW_BITS = 1 << 15    # payload bits parsed at a time (or one longer codeword)
SETTLE_SYMBOLS = 64      # adaptive decode parses ahead once m has held this many symbols
AHEAD_SYMBOLS = 256      # and then parses at least this many symbols at once

_NUMERATOR_LIMIT = 1 << 62  # unmap_array is exact below it


def _in_range(name, value, top):
    """value if it is in [1, top], else the compiled loops' ValueError."""
    if not 1 <= value <= top:
        raise ValueError(f"{name} must be in [1, {top}], got {value}")
    return value


def _run_too_long():
    return CorruptStreamError(f"unary run exceeds {MAX_RUN} bits")


def _end_of_stream():
    return CorruptStreamError("unexpected end of stream")


def _values(buf, dtype, need: int, name: str) -> np.ndarray:
    """buf as the compiled loops read it: at least ``need`` values of dtype."""
    values = np.frombuffer(buf, dtype)
    if values.size < need:
        raise ValueError(f"{name} holds {values.size} values, needs {need}")
    return values


def _output(count: int, nbits: int) -> bytearray:
    """Room for count int64 values: a codeword takes a bit, so no more than nbits."""
    return bytearray(8 * max(0, min(count, nbits)))


class _Packer:
    """Writes whole arrays of codewords, MSB first, as bitcoder.BitSink does."""

    def __init__(self) -> None:
        self._chunks: list[bytes] = []
        self._carry = np.zeros(0, np.uint8)  # the last < 8 bits, not yet packed
        self.bit_length = 0

    def write(self, values: np.ndarray, m) -> None:
        """Append the codewords of values under m (one, or one per value)."""
        q, field, width = codeword_fields(values, m)
        bad = (values < 0) | (q > MAX_RUN)
        if bad.any():
            i = int(np.argmax(bad))
            if values[i] < 0:
                raise ValueError(f"mapped residual must be non-negative, got {values[i]}")
            raise ValueError(f"quotient {q[i]} exceeds the {MAX_RUN}-bit unary limit")
        ends = np.cumsum(q + 1 + width)
        lo = 0
        while lo < ends.size:
            base = int(ends[lo - 1]) if lo else 0
            hi = max(int(np.searchsorted(ends, base + BLOCK_BITS, "right")), lo + 1)
            self._pack(q[lo:hi], field[lo:hi], width[lo:hi], ends[lo:hi] - base)
            lo = hi

    def _pack(self, q, field, width, ends) -> None:
        """Pack codewords ending at bit offsets ends after the carried bits."""
        carry = self._carry
        size = carry.size + int(ends[-1])
        stop = ends - width  # the zero closing each unary run
        stop += carry.size - 1
        # the unary runs: +1 where a run starts, -1 at its closing zero
        steps = np.zeros(size, np.int8)
        runs = np.flatnonzero(q)
        steps[stop[runs] - q[runs]] = 1
        steps[stop[runs]] = -1
        bits = np.cumsum(steps, dtype=np.int8).view(np.uint8)
        del steps, runs  # a block's arrays are most of a call's working memory
        # the remainder fields, one bit plane at a time (plane 0 is last);
        # a field is below 2**width, so its planes from width up are zero
        last = stop + width
        for plane in range(int(width.max())):
            bits[last[((field >> plane) & 1).astype(bool)] - plane] = 1
        bits[:carry.size] = carry
        whole = size & ~7
        self._chunks.append(np.packbits(bits[:whole]).tobytes())
        self._carry = bits[whole:].copy()
        self.bit_length += int(ends[-1])

    def finish(self) -> bytes:
        """Zero-pad to a whole byte and return every byte written."""
        if self._carry.size:
            self._chunks.append(np.packbits(self._carry).tobytes())
            self._carry = self._carry[:0]
        return b"".join(self._chunks)


def golomb_encode(ms, m):
    _in_range("golomb parameter", m, M_MAX)
    ms = _values(ms, np.int64, 0, "ms")
    packer = _Packer()
    for lo in range(0, ms.size, BLOCK_SYMBOLS):
        packer.write(ms[lo:lo + BLOCK_SYMBOLS], m)
    return packer.finish(), packer.bit_length


def adaptive_encode(ms, increments, raw, tau):
    ms = _values(ms, np.int64, 0, "ms")
    n = ms.size
    increments = _values(increments, np.float64 if raw else np.int64, n, "increments")
    _in_range("tau", tau, TAU_MAX)
    packer = _Packer()
    s = 0.0 if raw else 0  # the sum over the symbols before the block
    for lo in range(0, n, BLOCK_SYMBOLS):
        values = ms[lo:lo + BLOCK_SYMBOLS]
        hi = lo + values.size
        after = running_sums(s, increments[lo:hi], raw)
        m = select_m_array(np.arange(lo, hi), np.concatenate(([s], after[:-1])),
                           1 if raw else tau)
        packer.write(values, m)
        s = after[-1].item()
    return packer.finish(), packer.bit_length


def golomb_decode(payload, count, m):
    g = GolombParam(_in_range("golomb parameter", m, M_MAX))
    data = np.frombuffer(payload, dtype=np.uint8)
    out = _output(count, 8 * data.size)
    filled = np.frombuffer(out, np.int64)
    done = pos = 0
    window = WINDOW_BITS
    longest = MAX_RUN + g.bits + 2  # a window this long holds any legal codeword
    while done < count:
        left = 8 * data.size - pos
        if left <= 0:
            raise _end_of_stream()
        size = min(window, left)
        decoded = _decode_window(data, pos, size, g, count - done, size == left)
        if decoded is None:  # the next codeword is longer than the window
            window = min(2 * window, max(longest, WINDOW_BITS))
            continue
        values, ends, error = decoded
        if error is not None:
            raise error
        filled[done:done + values.size] = values
        done += values.size
        pos += int(ends[-1])
        window = WINDOW_BITS
    return out


def _bits(data, pos, size):
    """Payload bits [pos, pos + size), one uint8 0 or 1 each."""
    skip = pos & 7
    return np.unpackbits(data[pos >> 3:(pos + size + 7) >> 3])[skip:skip + size]


def _decode_window(data, pos, size, g, want, final):
    """Up to ``want`` codewords from payload bits [pos, pos + size).

    Returns (values, ends, error): the codewords that fit, the bit offset
    (from pos) after each, and None or the CorruptStreamError BitSource
    would raise for the codeword after them: for a unary run over
    MAX_RUN, or, when the window reaches the end of the payload, for a
    codeword it cuts off.  Returns None when not even the first codeword
    fits and more payload follows.

    Every codeword's unary run ends at a zero bit, and that zero fixes
    where the codeword ends.  So the chain of codewords is a chain of
    zeros: ``jump[r]`` is the rank of the zero closing the codeword after
    the one the r-th zero closes (``nzero`` if the window holds no such
    zero, ``nzero + 1`` if that codeword does not fit).  Pointer doubling
    finds the chain from the first zero: after k rounds ``chain`` holds
    its first 2**k entries and ``jump`` skips 2**k codewords.
    """
    m, b, threshold = g.m, g.bits, g.threshold
    bits = _bits(data, pos, size)
    iszero = bits == 0
    zeros = np.flatnonzero(iszero)
    nzero = zeros.size
    if b == 0:
        end = zeros + 1
    else:
        padded = np.zeros(size + b, np.uint8)  # zero bits past the window
        padded[:size] = bits
        field = np.zeros(nzero, np.intp)  # the b - 1 bits after each zero
        for t in range(1, b):
            field = (field << 1) | padded[zeros + t]
        longer = field >= threshold
        end = zeros + b + longer
    sentinel = nzero + 1
    jump = np.full(nzero + 2, sentinel, np.intp)
    fits = end <= size
    jump[:nzero][fits] = np.cumsum(iszero)[end[fits] - 1]  # zeros before end
    chain = np.zeros(1, np.intp)
    while True:
        chain = np.concatenate((chain, jump[chain]))
        if chain.size > want or chain[-1] == sentinel:
            break
        jump = jump[jump]
    chain = chain[:min(int(np.searchsorted(chain, sentinel)), want + 1)]
    closing = chain[:-1]  # the zeros closing the codewords that fit
    stop = zeros[closing]
    ends = end[closing]
    runs = stop - np.concatenate(([0], ends[:-1]))
    error = None
    if closing.size and int(runs.max()) > MAX_RUN:
        error = _run_too_long()
        first = int(np.argmax(runs > MAX_RUN))
        closing, stop, ends, runs = (a[:first] for a in (closing, stop, ends, runs))
    elif closing.size < want:
        last = int(chain[-1])
        resume = int(ends[-1]) if closing.size else 0
        if (int(zeros[last]) if last < nzero else size) - resume > MAX_RUN:
            error = _run_too_long()
        elif final:
            error = _end_of_stream()
        elif not closing.size:
            return None
    values = runs * m
    if b:
        head = field[closing]
        values += np.where(longer[closing],
                           ((head << 1) | padded[stop + b]) - threshold, head)
    return values, ends, error


def _read_codeword(text, p, g, final):
    """(value, offset after it) of the codeword at offset p of a bit text.

    None when the text cuts the codeword off and more payload follows;
    CorruptStreamError as BitSource would raise it otherwise.
    """
    z = text.find(b"0", p)
    if (len(text) if z < 0 else z) - p > MAX_RUN:
        raise _run_too_long()
    b = g.bits
    if z < 0 or z + b > len(text):
        if final:
            raise _end_of_stream()
        return None
    run = (z - p) * g.m
    if b == 0:
        return run, z + 1
    k = int(text[z + 1:z + b], 2) if b > 1 else 0
    if k < g.threshold:
        return run + k, z + b
    if z + b == len(text):
        if final:
            raise _end_of_stream()
        return None
    return run + ((k << 1) | (text[z + b] & 1)) - g.threshold, z + b + 1


_golomb = functools.cache(GolombParam)  # adaptive decode switches among few m


def _speculate(data, pos, nbits, g, i, want, rate, pred_n, pred_x, tau, raw, s, lo, hi):
    """Symbols i, i + 1, ... decoded at once, as long as their m stays g.m.

    Parses up to ``want`` codewords from bit ``pos`` under g, about
    ``rate`` bits each, as if m held for all of them; unmaps them, runs
    the estimator from sum ``s`` over them and keeps the prefix up to the
    first symbol after which select_m leaves g.m.  Every kept symbol was
    decoded under its own m, so only a kept codeword or symbol raises, and
    it raises what the loop over symbols would.  Returns (symbols, bits
    they take, sum after them, m of the next symbol), or None when the
    window holds no codeword or symbol i's numerator is past unmap_array's
    range.
    """
    n = pred_n[i:i + want]
    wide = (n <= -_NUMERATOR_LIMIT) | (n >= _NUMERATOR_LIMIT)
    if wide.any():
        n = n[:int(np.argmax(wide))]
        if not n.size:
            return None
    # room for n.size codewords a little longer than the run's so far
    size = min(nbits - pos, WINDOW_BITS, int(1.25 * rate * n.size) + 64)
    decoded = _decode_window(data, pos, size, g, n.size, size == nbits - pos)
    if decoded is None:
        return None
    values, ends, error = decoded
    k = values.size
    xs = unmap_array(values, n[:k], tau)
    inc = np.abs(xs - pred_x[i:i + k]) if raw else np.abs(tau * xs - n[:k])
    sums = running_sums(s, inc, raw)
    ms = select_m_array(np.arange(i + 1, i + k + 1), sums, 1 if raw else tau)
    switch = np.flatnonzero(ms != g.m)
    keep = int(switch[0]) + 1 if switch.size else k
    bad = np.flatnonzero((xs[:keep] < lo) | (xs[:keep] > hi))
    if bad.size:
        j = int(bad[0])
        raise symbol_out_of_range(i + j, int(xs[j]), lo, hi)
    if keep == k and error is not None:
        raise error
    return xs[:keep], int(ends[keep - 1]), sums[keep - 1].item(), int(ms[keep - 1])


def adaptive_decode(payload, count, pred_n, pred_x, tau, raw, lo, hi):
    _in_range("tau", tau, TAU_MAX)
    n_values = _values(pred_n, np.int64, count, "pred_n")
    x_values = _values(pred_x, np.float64, count, "pred_x")
    # memoryviews index to Python ints and floats, as the loop needs
    pred_n, pred_x = memoryview(n_values), memoryview(x_values)
    data = np.frombuffer(payload, np.uint8)
    nbits = 8 * data.size
    out = _output(count, nbits)
    filled, symbols = np.frombuffer(out, np.int64), memoryview(out).cast("q")
    scale = 1 if raw else tau  # select_m's tau
    s = 0.0 if raw else 0
    m = 1
    g = _golomb(m)
    i = pos = 0
    held = 0  # symbols decoded under m since it last changed
    run_pos = 0  # the bit where they began
    # payload bits [base, base + len(text)) as b"0"/b"1" bytes: bytes.find
    # reads a unary run, int(..., 2) a remainder field
    text, base = b"", 0
    while i < count:
        if held >= SETTLE_SYMBOLS:
            # a window of WINDOW_BITS bits holds at most WINDOW_BITS codewords
            want = min(count - i, max(held, AHEAD_SYMBOLS), WINDOW_BITS)
            step = _speculate(data, pos, nbits, g, i, want, (pos - run_pos) / held,
                              n_values, x_values, tau, raw, s, lo, hi)
            if step is not None:
                xs, used, s, m2 = step
                filled[i:i + xs.size] = xs
                i += xs.size
                pos += used
                if m2 == m:
                    held += xs.size
                else:
                    m, held, run_pos, g = m2, 0, pos, _golomb(m2)
                continue
        # one codeword
        read = _read_codeword(text, pos - base, g, base + len(text) == nbits)
        if read is None:  # the text ends inside the codeword: read on from it
            size = max(WINDOW_BITS, 2 * len(text)) if base == pos else WINDOW_BITS
            text = (_bits(data, pos, min(size, nbits - pos)) + ord("0")).tobytes()
            base = pos
            continue
        value, p = read
        pos = base + p
        n = pred_n[i]
        c = -((-2 * n) // tau)
        x = (value + c) >> 1 if (value + c) & 1 == 0 else (c - value - 1) >> 1
        if not lo <= x <= hi:
            raise symbol_out_of_range(i, x, lo, hi)
        symbols[i] = x
        if raw:
            s += abs(x - pred_x[i])
        else:
            s += abs(tau * x - n)
            if s > _SAT:
                s = _SAT
        i += 1
        m2 = select_m(i, s, scale)
        if m2 == m:
            held += 1
        else:
            m, held, run_pos, g = m2, 0, pos, _golomb(m2)
    return out
