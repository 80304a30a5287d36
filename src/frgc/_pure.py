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
``raw``, |x - xhat| (float64), non-negative and finite; ``pred_n`` the
rounded prediction numerators, below 2**62 in magnitude; ``pred_x`` the
predictions, read only when ``raw``, finite.  A raw increment, numerator
or prediction outside these raises ValueError before any codeword is
written or read (the first ``count`` on decode).  ``count``
is a Py_ssize_t and ``lo``, ``hi`` are int64: other values raise
OverflowError before any other check.  The adaptive m is
``_estcore.select_m``: the closed-form guess and one compare against
``_estcore.BOUNDS``, whose constants and table the compiled module
copies once, when it is imported.  adaptive_decode
raises CorruptStreamError for the first symbol outside [lo, hi].  No
loop reports its m: a stream's m sequence is a function of its symbols
and predictions, which encode_stream derives (collect_trace).

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
seldom changes, so it guesses.  Each step of its loop decodes a window
or one symbol.  Once m has held for SETTLE_SYMBOLS symbols, the step
parses a window of codewords under that m as golomb_decode does,
unmaps them, and keeps the symbols up to the first after which ln
theta_hat leaves m's interval (_estcore.hold).  Until then the step
reads one codeword, as codec._decode_lpc's cold start does too, and
tests the interval (_estcore.m_interval) after its symbol.  Either way
select_m runs only where the test fails, and the step ends in the
loop's one switch of m.  CodewordReader looks most of the single
codewords up in a table of m by the next TABLE_BITS bits, which
adaptive_decode indexes in its own loop, and scans the rest.
"""

from __future__ import annotations

import functools
import sys
from array import array

import numpy as np

from frgc._estcore import (
    EST_SATURATION as _SAT,
    MAX_ADAPTIVE_M,
    hold,
    m_interval,
    run,
    select_m,
)
from frgc.bitcoder import (
    M_MAX,
    MAX_RUN,
    TAU_MAX,
    CorruptStreamError,
    GolombParam,
    check_symbol_range,
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
TABLE_BITS = 12          # a cold-start read looks its codeword up by the next 12 bits
READ_BYTES = 128         # payload bytes a cold-start reader takes into its windows at a time
_SHIFT = 32 - TABLE_BITS           # a window's 32 bits, less the looked-up ones
_MASK = (1 << TABLE_BITS) - 1

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
        """Append the codewords of values under m: one GolombParam (the
        cached _golomb), or an int64 array of parameters, one per value.

        A write that fits in one pack is packed by one _pack call; a
        longer one is cut where each pack's bits run out.  Under one m
        every field is b - 1 or b bits wide, so _pack takes those widths
        from the parameter instead of finding them in the array.
        """
        q, field, width = codeword_fields(values, m)
        if values.size and (values.min() < 0 or q.max() > MAX_RUN):
            i = int(np.argmax((values < 0) | (q > MAX_RUN)))
            if values[i] < 0:
                raise ValueError(f"mapped residual must be non-negative, got {values[i]}")
            raise ValueError(f"quotient {q[i]} exceeds the {MAX_RUN}-bit unary limit")
        widths = (m.bits - 1, m.bits) if isinstance(m, GolombParam) else None
        ends = np.cumsum(q + 1 + width)
        lo = base = 0
        while lo < ends.size:
            if ends[-1] - base <= BLOCK_BITS:  # the rest fits in one pack
                hi = ends.size
            else:
                hi = max(int(np.searchsorted(ends, base + BLOCK_BITS, "right")), lo + 1)
            self._pack(field[lo:hi], width[lo:hi], ends[lo:hi] - base, widths)
            lo, base = hi, int(ends[hi - 1])

    def _pack(self, field, width, ends, widths=None) -> None:
        """Pack codewords ending at bit offsets ends after the carried bits.

        widths is (narrow, widest), a lower and an upper bound on the
        field widths, found in width when None.  The bit image starts as
        all ones, which the unary runs are.  Over it go each codeword's
        closing zero and then its field's bits, 0 or 1, one plane at a
        time (plane 0 is the field's last bit): a bit assigned per
        codeword, so no pass runs over every bit.  Planes below narrow
        belong to every codeword.  So does plane narrow: a field of that
        width has its closing zero there, and its bit in that plane is 0.
        Only the wider planes select their codewords.
        """
        carry = self._carry
        bits = np.ones(carry.size + int(ends[-1]), np.uint8)
        last = ends + (carry.size - 1)  # each codeword's last bit
        bits[last - width] = 0
        narrow, widest = widths or (int(width.min()), int(width.max()))
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
    g = _golomb(_in_range("golomb parameter", m, M_MAX))
    ms = _values(ms, np.int64, 0, "ms")
    packer = _Packer()
    for lo in range(0, ms.size, BLOCK_SYMBOLS):
        packer.write(ms[lo:lo + BLOCK_SYMBOLS], g)
    return packer.finish(), packer.bit_length


def adaptive_encode(ms, increments, raw, tau):
    ms = _values(ms, np.int64, 0, "ms")
    n = ms.size
    increments = _values(increments, np.float64 if raw else np.int64, n, "increments")
    _in_range("tau", tau, TAU_MAX)
    if raw and not np.isfinite(increments[:n]).all():  # a NaN sum would hold no agreed m
        raise ValueError("raw increments must be finite")
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
    g = _golomb(_in_range("golomb parameter", m, M_MAX))
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

    A read looks its codeword up by the TABLE_BITS bits at pos in m's
    table (_table), for m up to MAX_ADAPTIVE_M.  It takes those bits from
    its windows: words[k] holds the 32 bits from payload byte base + k
    on, so the bits at pos are ``words[(pos >> 3) - base] >> (_SHIFT - (pos
    & 7)) & _MASK``.  The windows are refilled from pos's byte, READ_BYTES
    bytes at a time: a cold start reads at most SETTLE_SYMBOLS codewords
    before its decoder parses ahead, and 64 hits span at most 96 bytes,
    so a refill passes over little more of the payload than the reads
    take.  Lookups are made only at bits before ``stop``, from which
    TABLE_BITS bits lie in the payload, so a hit never reads the zero pad
    past it.

    A miss, a codeword that starts fewer than TABLE_BITS bits before the
    payload's end, and an m without a table are scanned (scan): the
    reader holds payload bits [start, start + len(text)) as b"0"/b"1"
    bytes, bytes.find reads a unary run and int(..., 2) a remainder
    field.  When a codeword runs past the text, scan refills it from that
    codeword's first bit: WINDOW_BITS bits, doubled while the codeword
    does not fit.
    """

    def __init__(self, payload) -> None:
        self._data = np.frombuffer(payload, np.uint8)
        self._nbits = 8 * self._data.size
        self._text, self._start = b"", 0
        self._words, self._base, self._stop = [], 0, 0

    def windows(self, pos):
        """(words, base, stop) with the bits at pos in them, unless fewer
        than TABLE_BITS payload bits follow pos, where stop <= pos.

        The windows are refilled from pos's byte when pos lies outside
        them.  A decoder that keeps them must read at bits that never go
        back, and ask again from stop on."""
        if not 8 * self._base <= pos < self._stop and pos <= self._nbits - TABLE_BITS:
            base = pos >> 3
            size = min(READ_BYTES, self._data.size - base)
            chunk = self._data[base:base + size + 3].tobytes() + bytes(3)  # zero past the payload
            # a big-endian uint32 at every byte: one strided view
            self._words = np.ndarray(size, ">u4", chunk, 0, (1,)).tolist()
            self._base = base
            self._stop = min(8 * (base + size), self._nbits - TABLE_BITS + 1)
        return self._words, self._base, self._stop

    def read(self, pos, g):
        """(value, end) of the codeword at bit pos under g: its mapped
        residual and the bit after it.

        pos is at or after the previous read's, so a decoder may skip the
        codewords a window parsed.  Raises CorruptStreamError for a unary
        run over MAX_RUN and for a codeword the payload cuts off.
        """
        table = _table(g.m)
        if table is not None:
            words, base, stop = self.windows(pos)
            if pos < stop:
                entry = table[words[(pos >> 3) - base] >> (_SHIFT - (pos & 7)) & _MASK]
                if entry:  # (value << 4) | length
                    return entry >> 4, pos + (entry & 15)
        return self.scan(pos, g)

    def scan(self, pos, g):
        """read for any codeword, from the b"0"/b"1" text."""
        b = g.bits
        while True:
            text, start = self._text, self._start
            p = pos - start
            z = text.find(b"0", p)
            if (len(text) if z < 0 else z) - p > MAX_RUN:
                raise _run_too_long()
            if 0 <= z <= len(text) - b:
                run = (z - p) * g.m
                if b == 0:
                    return run, start + z + 1
                k = int(text[z + 1:z + b], 2) if b > 1 else 0
                if k < g.threshold:
                    return run + k, start + z + b
                if z + b < len(text):
                    return (run + ((k << 1) | (text[z + b] & 1)) - g.threshold,
                            start + z + b + 1)
            # the text ends inside the codeword: read on from its first bit
            if start + len(text) == self._nbits:
                raise _end_of_stream()
            size = max(WINDOW_BITS, 2 * len(text)) if start == pos else WINDOW_BITS
            self._text = (_bits(self._data, pos, min(size, self._nbits - pos))
                          + ord("0")).tobytes()
            self._start = pos


_TABLES: dict[int, array] = {}  # _table's, by m


def _table(m):
    """CodewordReader's lookup table for m, or None past MAX_ADAPTIVE_M.

    Entry w, for each TABLE_BITS-bit window w (MSB first), is (value <<
    4) | length of the codeword that begins the window when all of its
    bits lie in it, and 0, a miss, when they do not.  A codeword of
    length l is the first l bits of 2**(TABLE_BITS - l) windows, a row
    of the table seen as 2**l rows.  Built in numpy from codeword_fields,
    the fields the encoders write, the first time m is read; the adaptive
    m never exceeds MAX_ADAPTIVE_M, so the cache holds at most that many
    tables of 2 * 2**TABLE_BITS bytes.
    """
    table = _TABLES.get(m)
    if table is None and m <= MAX_ADAPTIVE_M:
        values = np.arange(TABLE_BITS * m)  # every quotient below TABLE_BITS
        q, field, width = codeword_fields(values, _golomb(m))
        length = q + 1 + width
        code = (((1 << q) - 1) << (width + 1)) | field  # the run, its zero, the field
        entries = np.zeros(1 << TABLE_BITS, np.uint16)
        for size in range(1, TABLE_BITS + 1):
            fits = length == size
            entries.reshape(1 << size, -1)[code[fits]] = ((values[fits] << 4) | size)[:, None]
        table = _TABLES[m] = array("H", entries.tobytes())
    return table


# one parameter per m, built once: the encoders' fixed m and the few that
# an adaptive decode switches among
_golomb = functools.cache(GolombParam)


def adaptive_decode(payload, count, pred_n, pred_x, tau, raw, lo, hi):
    _c_integer(count, sys.maxsize)
    _c_integer(lo, _INT64_MAX)
    _c_integer(hi, _INT64_MAX)
    _in_range("tau", tau, TAU_MAX)
    n_values = _values(pred_n, np.int64, count, "pred_n")
    x_values = _values(pred_x, np.float64, count, "pred_x")
    head = n_values[:count]  # every numerator before any codeword: unmap_array needs them
    if head.size and not -_NUMERATOR_LIMIT < head.min() <= head.max() < _NUMERATOR_LIMIT:
        raise ValueError("prediction numerator out of range")
    if raw and not np.isfinite(x_values[:count]).all():
        raise ValueError("predictions must be finite")
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
    reader = CodewordReader(data)
    # the reader's table for m and its windows, whose hits are read here
    table, words, base, stop = _table(m), [], 0, 0
    shift, mask = _SHIFT, _MASK
    while i < count:
        if held >= SETTLE_SYMBOLS:
            # the symbols of a window parsed under m, up to the first after which m changes
            values, ends, error = parse_ahead(data, pos, g, count - i, held, pos - run_pos)
            k = values.size
            n = n_values[i:i + k]
            xs = unmap_array(values, n, tau)
            if raw:
                inc = xs - x_values[i:i + k]
            else:
                inc = tau * xs
                inc -= n
            sums, j, m2 = hold(i, s, np.abs(inc, out=inc), m, tau, raw)
            if j is not None:
                k, error = j + 1, None
            check_symbol_range(xs[:k], i, lo, hi)
            if error is not None:
                raise error
            filled[i:i + k] = xs[:k]
            s = sums[k - 1].item()
            pos += int(ends[k - 1])
            i += k
            held += k
            if j is None:
                continue
        else:
            # one codeword: CodewordReader.read, with its hit taken here
            if pos >= stop:
                words, base, stop = reader.windows(pos)
            if pos < stop and (entry := table[words[(pos >> 3) - base]
                                              >> (shift - (pos & 7)) & mask]):
                value, pos = entry >> 4, pos + (entry & 15)
            else:
                value, pos = reader.scan(pos, g)
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
            held += 1
            # m holds while ln theta_hat stays in its interval (s is 0 only at m = 1)
            if not s > 0 or low < -(i * scale) / float(s) <= high:
                continue
            m2 = select_m(i, s, scale)
        if m2 != m:
            m, held, run_pos, g, table = m2, 0, pos, _golomb(m2), _table(m2)
            low, high = m_interval(m2)
    return out
