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
prediction numerators, below 2**62 in magnitude (adaptive_decode raises
ValueError at the first symbol whose numerator is not, after reading its
codeword); ``pred_x`` the predictions, read only when ``raw``.  ``count``
is a Py_ssize_t and ``lo``, ``hi`` are int64: other values raise
OverflowError before any other check.  The adaptive m is
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
sums give them all at once: _estcore.run).  The encoders take
BLOCK_SYMBOLS symbols at a time and pack at most BLOCK_BITS bits at a
time: a bit image of ones, over which each codeword's closing zero and
field bits are written (_Packer._pack).  Every decoder that parses
ahead does so through parse_ahead, which reads at most WINDOW_BITS
payload bits at a time and widens a window only to fit one codeword of
at most MAX_RUN + ceil(lg m) + 1 bits.  So, besides its input and output, a call holds a bounded amount
of memory, whatever the stream's length.  A window's codewords are a
chain of the zeros that end their unary runs (_decode_window): the b =
ceil(lg m) bits after each zero say which zero closes the next
codeword, and _chain follows that table with CHAIN_LEVELS rounds of
doubling, a walk of every 2**CHAIN_LEVELS-th codeword and one gather
per round; at m = 1 every zero closes a codeword.

adaptive_decode cannot know an m before the symbols ahead of it, but m
seldom changes, so it guesses: once m has held for SETTLE_SYMBOLS
symbols, it parses a window of codewords under that m as golomb_decode
does, takes the estimator's running sums over the symbols they unmap
to, and keeps them up to the first after which ln theta_hat leaves m's
interval (_estcore.m_interval; _speculate).  Until then it reads one
codeword at a time (CodewordReader), as codec._decode_lpc's cold start
does too, and tests the interval after each symbol.  Either way
select_m runs only where the test fails, once per switch of m.
"""

from __future__ import annotations

import functools
import sys

import numpy as np

from frgc._estcore import (
    EST_SATURATION as _SAT,
    MAX_ADAPTIVE_M,
    m_interval,
    run,
    running_sums,
    select_m,
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

BLOCK_SYMBOLS = 1 << 14  # symbols split at a time
BLOCK_BITS = 1 << 16     # payload bits packed at a time (or one longer codeword)
WINDOW_BITS = 1 << 15    # payload bits parsed at a time (or one longer codeword)
CHAIN_LEVELS = 5         # a window's chain of codewords is walked 2**5 at a step
SETTLE_SYMBOLS = 64      # adaptive decode parses ahead once m has held this many symbols
AHEAD_SYMBOLS = 256      # and then parses at least this many symbols at once

_NUMERATOR_LIMIT = 1 << 62  # unmap_array is exact below it; adaptive_decode refuses more
_INT64_MAX = (1 << 63) - 1

# _ONES[v]: the one bits in v, for any remainder field (M_MAX < 2**16)
_ONES = np.zeros(1 << 16, np.uint8)
for _k in range(16):
    _ONES[1 << _k:2 << _k] = _ONES[:1 << _k] + 1
del _k


def _in_range(name, value, top):
    """value if it is in [1, top], else the compiled loops' ValueError."""
    if not 1 <= value <= top:
        raise ValueError(f"{name} must be in [1, {top}], got {value}")
    return value


def _c_integer(value, top):
    """The compiled loops' OverflowError unless value is in [-top - 1, top],
    the range of the C type they parse it as."""
    if not -top - 1 <= value <= top:
        raise OverflowError(f"{value} outside [{-top - 1}, {top}]")


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
    """Writes whole arrays of codewords, MSB first, as the decoders read them.

    write splits each array into packs of at most BLOCK_BITS bits (or one
    longer codeword); _pack draws a pack's bits at codeword cost and packs
    all but the last < 8, which it carries into the next pack.
    """

    def __init__(self) -> None:
        self._chunks: list[bytes] = []
        self._carry = np.zeros(0, np.uint8)  # the last < 8 bits, not yet packed
        self.bit_length = 0

    def write(self, values: np.ndarray, m) -> None:
        """Append the codewords of values under m (one, or one per value)."""
        q, field, width = codeword_fields(values, m)
        if values.size and (values.min() < 0 or q.max() > MAX_RUN):
            i = int(np.argmax((values < 0) | (q > MAX_RUN)))
            if values[i] < 0:
                raise ValueError(f"mapped residual must be non-negative, got {values[i]}")
            raise ValueError(f"quotient {q[i]} exceeds the {MAX_RUN}-bit unary limit")
        ends = np.cumsum(q + 1 + width)
        lo = 0
        while lo < ends.size:
            base = int(ends[lo - 1]) if lo else 0
            hi = max(int(np.searchsorted(ends, base + BLOCK_BITS, "right")), lo + 1)
            self._pack(field[lo:hi], width[lo:hi], ends[lo:hi] - base)
            lo = hi

    def _pack(self, field, width, ends) -> None:
        """Pack codewords ending at bit offsets ends after the carried bits.

        The bit image starts as all ones, which the unary runs are.  Over
        it go each codeword's closing zero and then its field's bits, 0 or
        1, one plane at a time (plane 0 is the field's last bit): a bit
        assigned per codeword, so no pass runs over every bit.  Planes
        below the narrowest width belong to every codeword.  So does that
        width's own plane: a field of that width has its closing zero
        there, and its bit in that plane is 0.  Only the wider planes
        select their codewords.
        """
        carry = self._carry
        bits = np.ones(carry.size + int(ends[-1]), np.uint8)
        last = ends + (carry.size - 1)  # each codeword's last bit
        bits[last - width] = 0
        narrow, widest = int(width.min()), int(width.max())
        # a uint8 source scatters faster than the int64 field
        for plane in range(min(narrow + 1, widest)):
            bits[last - plane] = ((field >> plane) & 1).astype(np.uint8)
        for plane in range(narrow + 1, widest):
            wide = width > plane
            bits[last[wide] - plane] = ((field[wide] >> plane) & 1).astype(np.uint8)
        bits[:carry.size] = carry
        whole = bits.size & ~7
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
    s = 0  # the sum over the symbols before the block
    for lo in range(0, n, BLOCK_SYMBOLS):
        values = ms[lo:lo + BLOCK_SYMBOLS]
        sums, m = run(lo, s, increments[lo:lo + values.size], tau, raw)
        packer.write(values, m[:-1])
        s = sums[-1].item()
    return packer.finish(), packer.bit_length


def golomb_decode(payload, count, m):
    _c_integer(count, sys.maxsize)
    g = GolombParam(_in_range("golomb parameter", m, M_MAX))
    data = np.frombuffer(payload, dtype=np.uint8)
    out = _output(count, 8 * data.size)
    filled = np.frombuffer(out, np.int64)
    done = pos = 0
    while done < count:
        values, ends, error = parse_ahead(data, pos, g, count - done)
        if error is not None:
            raise error
        filled[done:done + values.size] = values
        done += values.size
        pos += int(ends[-1])
    return out


def _bits(data, pos, size):
    """Payload bits [pos, pos + size), one uint8 0 or 1 each."""
    skip = pos & 7
    return np.unpackbits(data[pos >> 3:(pos + size + 7) >> 3])[skip:skip + size]


def _chain(jump, nzero, want):
    """Ranks of the zeros that close a window's codewords, from rank 0.

    jump[r] is the rank of the zero closing the codeword after the one
    the r-th zero closes: ``nzero`` if the window holds no such zero, and
    the sentinel, jump's last index, if the r-th zero's own codeword does
    not fit.  Every rank from nzero on maps to the sentinel.  Returns the
    chain's first want + 1 ranks, cut before the first sentinel.

    jump is doubled into tables that skip 2**k codewords, k up to
    CHAIN_LEVELS.  A walk in Python along the last table finds every
    2**k-th rank in at most (want >> k) + 1 steps, and a gather from
    each table below it fills in the ranks halfway between those found.
    """
    levels = min(CHAIN_LEVELS, want.bit_length() - 1)
    tables = [jump]
    for _ in range(levels):
        jump = jump[jump]
        tables.append(jump)
    step, walk, r = memoryview(jump), [0], 0
    for _ in range(want >> levels):
        r = step[r]
        walk.append(r)
        if r >= nzero:
            break
    chain = np.empty(len(walk) << levels, np.intp)
    chain[::1 << levels] = walk
    for k in range(levels - 1, -1, -1):
        chain[1 << k::2 << k] = tables[k][chain[::2 << k]]
    chain = chain[:want + 1]
    return chain[:int(np.searchsorted(chain, tables[0].size - 1))]


def _decode_window(data, pos, size, g, want, final):
    """Up to ``want`` codewords from payload bits [pos, pos + size).

    Returns (values, ends, error): the codewords that fit, the bit offset
    (from pos) after each, and None or the CorruptStreamError that
    CodewordReader.read raises for the codeword after them: for a unary
    run over MAX_RUN, or, when the window reaches the end of the payload,
    for a codeword it cuts off.  Returns None when not even the first
    codeword fits and more payload follows.

    Every codeword's unary run ends at a zero bit, and that zero fixes
    where the codeword ends.  So the codewords are a chain of zeros from
    the window's first.  At m = 1 every zero closes a codeword.  Else the
    b = ceil(lg m) bits after the r-th zero hold the remainder field of
    the codeword it would close, so they give that codeword's end and
    the zeros inside it, and the next codeword's zero is jump[r] = r + 1
    + those zeros, which _chain follows.  A codeword holds at most b + 1
    zeros, so the at most want + 2**CHAIN_LEVELS codewords that _chain
    reads lie in the first ``cap`` zeros, and the rest are dropped.  A
    zero near the cap may point past it, to a rank up to nzero + b, which
    jump maps to the sentinel like nzero itself.
    """
    m, b = g.m, g.bits
    bits = _bits(data, pos, size)
    zeros = np.flatnonzero(bits == 0)
    if b == 0:
        stop = zeros[:want]  # the zeros closing the codewords that fit
        ends = stop + 1
        after = size  # if they are fewer than want, no zero stops the next run
    else:
        cap = (want + (1 << CHAIN_LEVELS) + 1) * (b + 1) + b
        if zeros.size > cap:
            zeros = zeros[:cap].copy()
        nzero = zeros.size
        dtype = np.uint8 if b <= 8 else np.uint16
        ahead = np.zeros(size, dtype)  # the b bits after each bit, zero past the window
        for t in range(1, b + 1):
            ahead += ahead
            ahead[:max(size - t, 0)] += bits[t:]
        ahead = ahead[zeros]
        longer = (ahead >= 2 * g.threshold).astype(dtype)  # the field takes all b bits
        field = ahead >> (1 - longer)  # its first b - 1 bits, or all b
        span = longer + dtype(b)  # a codeword ends span bits after its zero
        jump = np.empty(nzero + b + 2, np.intp)
        np.add(np.arange(nzero), span - _ONES.take(field), out=jump[:nzero])
        jump[nzero:] = sentinel = jump.size - 1
        # a zero with b zeros after it ends its codeword inside the window
        lo = max(nzero - b, 0)
        jump[lo:nzero][zeros[lo:] + span[lo:] > size] = sentinel
        chain = _chain(jump, nzero, want)
        closing, last = chain[:-1], int(chain[-1])
        stop = zeros[closing]
        ends = stop + span[closing]
        rem = (field - longer * g.threshold)[closing]
        after = int(zeros[last]) if last < nzero else size
    runs = stop.copy()
    runs[1:] -= ends[:-1]
    error = None
    if runs.size and int(runs.max()) > MAX_RUN:
        error = _run_too_long()
        first = int(np.argmax(runs > MAX_RUN))
        runs, ends = runs[:first], ends[:first]
    elif runs.size < want:
        if after - (int(ends[-1]) if runs.size else 0) > MAX_RUN:
            error = _run_too_long()
        elif final:
            error = _end_of_stream()
        elif not runs.size:
            return None
    if b:
        runs *= m
        runs += rem[:runs.size]
    return runs, ends, error


def parse_ahead(data, pos, g, left, held=0, held_bits=0):
    """_decode_window's (values, ends, error) for the codewords under g
    from bit pos, of which ``left`` remain in the stream.

    For a fixed m (held = 0) it parses up to ``left`` codewords in a
    window of WINDOW_BITS bits.  For an adaptive m that has held for
    ``held`` symbols, which took ``held_bits`` bits, it guesses that m
    holds for max(2 * held, AHEAD_SYMBOLS) more, and cuts the window to a
    little more than that many codewords at the rate so far, so that a
    guess parses little more than it is likely to keep.  Testing a
    window's symbols costs less than parsing them, so a guess of held
    more parses too many short windows; 4 * held measured no faster than
    2 * held.  A window holds at most one codeword per bit, so no count
    exceeds WINDOW_BITS.  While the first codeword runs past the window,
    and more payload follows, the window doubles, up to one that holds
    any legal codeword.  So the result holds a codeword or the error that
    ends the codewords.
    """
    want, size = min(left, WINDOW_BITS), WINDOW_BITS
    if held:
        want = min(want, max(2 * held, AHEAD_SYMBOLS))
        size = min(size, int(1.25 * held_bits / held * want) + 64)
    rest = 8 * data.size - pos
    while True:
        size = min(size, rest)
        decoded = _decode_window(data, pos, size, g, want, size == rest)
        if decoded is not None:
            return decoded
        size = min(2 * size, max(MAX_RUN + g.bits + 2, WINDOW_BITS))


class CodewordReader:
    """A payload's codewords one at a time, for the decoders' cold starts.

    It holds payload bits [base, base + len(text)) as b"0"/b"1" bytes:
    bytes.find reads a unary run, int(..., 2) a remainder field.  When a
    codeword runs past the text, read refills it from that codeword's
    first bit: WINDOW_BITS bits, doubled while the codeword does not fit.
    """

    def __init__(self, payload) -> None:
        self._data = np.frombuffer(payload, np.uint8)
        self._nbits = 8 * self._data.size
        self._text, self._base = b"", 0

    def read(self, pos, g):
        """(value, end) of the codeword at bit pos under g: its mapped
        residual and the bit after it.

        pos is at or after the previous read's, so a decoder may skip the
        codewords a window parsed.  Raises CorruptStreamError for a unary
        run over MAX_RUN and for a codeword the payload cuts off.
        """
        b = g.bits
        while True:
            text, base = self._text, self._base
            p = pos - base
            z = text.find(b"0", p)
            if (len(text) if z < 0 else z) - p > MAX_RUN:
                raise _run_too_long()
            if 0 <= z <= len(text) - b:
                run = (z - p) * g.m
                if b == 0:
                    return run, base + z + 1
                k = int(text[z + 1:z + b], 2) if b > 1 else 0
                if k < g.threshold:
                    return run + k, base + z + b
                if z + b < len(text):
                    return (run + ((k << 1) | (text[z + b] & 1)) - g.threshold,
                            base + z + b + 1)
            # the text ends inside the codeword: read on from its first bit
            if base + len(text) == self._nbits:
                raise _end_of_stream()
            size = max(WINDOW_BITS, 2 * len(text)) if base == pos else WINDOW_BITS
            self._text = (_bits(self._data, pos, min(size, self._nbits - pos))
                          + ord("0")).tobytes()
            self._base = pos


_golomb = functools.cache(GolombParam)  # adaptive decode switches among few m


def _speculate(window, m, i, pred_n, pred_x, tau, raw, s, lo, hi):
    """Symbols i, i + 1, ... decoded at once, as long as their m stays m.

    ``window`` is parse_ahead's parse from symbol i's codeword on under
    m, as if m held for all of them.  Unmaps its codewords, takes the
    estimator's running sums from ``s`` over them, and keeps the prefix up
    to the first symbol after which ln theta_hat leaves m's interval
    (m_interval): the quotient q = t * tau / S after each symbol, formed
    as select_m forms it, is -ln theta_hat, so two compares against the
    interval's negated ends find that symbol, and select_m runs once, for
    the symbol after it.  Sums still 0 at the window's start give m = 1.
    Every kept symbol was decoded under its own m, so only a kept codeword
    or symbol, or the one after them while m holds, raises, and it raises
    what the loop over symbols would.  Returns (symbols, bits they take,
    sum after them, m of the next symbol).
    """
    values, ends, error = window
    n = pred_n[i:i + values.size]
    if n.size and (n.min() <= -_NUMERATOR_LIMIT or n.max() >= _NUMERATOR_LIMIT):
        # the loop over symbols reads its codeword, then refuses it
        k = int(np.argmax((n <= -_NUMERATOR_LIMIT) | (n >= _NUMERATOR_LIMIT)))
        values, n = values[:k], n[:k]
        error = ValueError("prediction numerator out of range")
    k = values.size
    xs = unmap_array(values, n, tau)
    if raw:
        inc = xs - pred_x[i:i + k]
    else:
        inc = tau * xs
        inc -= n
    sums = running_sums(s, np.abs(inc, out=inc), raw)
    scale = 1 if raw else tau  # select_m's tau
    # sums never fall, so those still 0 are a prefix; m is 1 there, as
    # it is at the sum 0 before them
    z = 0 if s > 0 else int(np.searchsorted(sums, 0, "right"))
    switch = None  # the symbol after which m changes
    if z < k:
        # the int64 products, then the casts and the division, as select_m
        q = np.arange((i + z + 1) * scale, (i + k + 1) * scale, scale) / sums[z:]
        low, high = m_interval(m)
        # x = -q leaves (low, high] where q < -high or q >= -low; the
        # first test is vacuous at the cap, the second at m = 1, where it
        # would flag q = inf
        if m == MAX_ADAPTIVE_M:
            out = q >= -low
        else:
            out = q < -high
            if m > 1:
                out |= q >= -low
        j = int(np.argmax(out))
        if out[j]:
            switch = z + j
    kept = xs if switch is None else xs[:switch + 1]
    if kept.size and (kept.min() < lo or kept.max() > hi):
        j = int(np.argmax((kept < lo) | (kept > hi)))
        raise symbol_out_of_range(i + j, int(xs[j]), lo, hi)
    if switch is None:
        if error is not None:
            raise error
        return xs, int(ends[-1]), sums[-1].item(), m
    after = sums[switch].item()
    return kept, int(ends[switch]), after, select_m(i + switch + 1, after, scale)


def adaptive_decode(payload, count, pred_n, pred_x, tau, raw, lo, hi):
    _c_integer(count, sys.maxsize)
    _c_integer(lo, _INT64_MAX)
    _c_integer(hi, _INT64_MAX)
    _in_range("tau", tau, TAU_MAX)
    n_values = _values(pred_n, np.int64, count, "pred_n")
    x_values = _values(pred_x, np.float64, count, "pred_x")
    # memoryviews index to Python ints and floats, as the loop needs
    pred_n, pred_x = memoryview(n_values), memoryview(x_values)
    data = np.frombuffer(payload, np.uint8)
    out = _output(count, 8 * data.size)
    filled, symbols = np.frombuffer(out, np.int64), memoryview(out).cast("q")
    scale = 1 if raw else tau  # select_m's tau
    s = 0.0 if raw else 0
    m = 1
    g = _golomb(m)
    low, high = m_interval(m)
    i = pos = 0
    held = 0  # symbols decoded under m since it last changed
    run_pos = 0  # the bit where they began
    read = CodewordReader(data).read
    while i < count:
        if held >= SETTLE_SYMBOLS:
            window = parse_ahead(data, pos, g, count - i, held, pos - run_pos)
            xs, used, s, m2 = _speculate(window, m, i, n_values, x_values,
                                         tau, raw, s, lo, hi)
            filled[i:i + xs.size] = xs
            i += xs.size
            pos += used
            if m2 == m:
                held += xs.size
            else:
                m, held, run_pos, g = m2, 0, pos, _golomb(m2)
                low, high = m_interval(m2)
            continue
        value, pos = read(pos, g)  # one codeword
        n = pred_n[i]
        if not -_NUMERATOR_LIMIT < n < _NUMERATOR_LIMIT:
            raise ValueError("prediction numerator out of range")
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
        # m holds while ln theta_hat stays in its interval (s is 0 only at m = 1)
        if s > 0 and not low < -(i * scale) / float(s) <= high:
            m2 = select_m(i, s, scale)
            if m2 != m:
                m, held, run_pos, g = m2, 0, pos, _golomb(m2)
                low, high = m_interval(m2)
                continue
        held += 1
    return out
