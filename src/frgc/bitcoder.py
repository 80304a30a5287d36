"""Bit-level source and Golomb codeword primitives.

Bits are MSB-first within each byte.  A Golomb codeword for a mapped
residual M with parameter m is the unary quotient (floor(M/m) ones, then a
zero) followed by the remainder M mod m in minimal binary.  m = 1 emits the
unary part only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Stream limits: format constants of the header and both backends, which
# refuse a quotient over MAX_RUN (corruption on decode), and m and tau
# outside [1, M_MAX] and [1, TAU_MAX].
MAX_RUN = 1 << 20
M_MAX = 0xFFFF
TAU_MAX = 0xFFFF


class CorruptStreamError(ValueError):
    """Bitstream ended early or contains an impossible codeword."""


@dataclass(frozen=True)
class GolombParam:
    """Coding parameter m with the derived minimal-binary split.

    ``bits`` is ceil(lg m); remainders below ``threshold`` = 2**bits - m are
    written in bits-1 binary digits, the rest (offset by threshold) in bits.
    """

    m: int
    bits: int = field(init=False, repr=False, compare=False)
    threshold: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError(f"golomb parameter must be >= 1, got {self.m}")
        b = (self.m - 1).bit_length()
        object.__setattr__(self, "bits", b)
        object.__setattr__(self, "threshold", (1 << b) - self.m)


def codeword_fields(values: np.ndarray, m):
    """The codeword split of int64 mapped residuals, for a whole array.

    m is one parameter or an array of them, one per value.  Returns
    (quotients, remainder fields, field widths): each codeword is its
    quotient in unary, then the field in ``width`` binary digits, as
    BitSource.read_unary and read_minimal_binary read them.  m must be at most
    2**52, so that ceil(lg m) is exact in a double.
    """
    q = values // m
    field = values - q * m  # np.divmod takes twice as long
    if np.ndim(m) == 0:
        g = GolombParam(int(m))
        b, threshold = g.bits, g.threshold
    else:
        b = np.frexp(m - 1)[1].astype(np.int64)  # the bit length of m - 1
        threshold = np.left_shift(1, b) - m
    wide = field >= threshold  # the field takes all b bits, offset by threshold
    field += wide * threshold
    return q, field, wide + (b - 1)


def symbol_out_of_range(t: int, x: int, lo: int, hi: int) -> CorruptStreamError:
    """The error for decoded symbol t, x, outside the stream's [lo, hi]."""
    return CorruptStreamError(f"symbol {t} decodes to {x}, outside [{lo}, {hi}]")


class BitSource:
    """Reads bits MSB-first from a bytes-like payload."""

    def __init__(self, data) -> None:
        self._data = bytes(data)
        self._pos = 0
        self._nbits = 8 * len(self._data)

    @property
    def bits_left(self) -> int:
        return self._nbits - self._pos

    @property
    def position(self) -> int:
        """Offset of the next bit to read, from the start of the payload."""
        return self._pos

    @position.setter
    def position(self, pos: int) -> None:
        if not 0 <= pos <= self._nbits:
            raise ValueError(f"bit position {pos} outside [0, {self._nbits}]")
        self._pos = pos

    def read_bits(self, nbits: int) -> int:
        if nbits < 0:
            raise ValueError("cannot read a negative number of bits")
        pos = self._pos
        if pos + nbits > self._nbits:
            raise CorruptStreamError("unexpected end of stream")
        data = self._data
        result = 0
        while nbits > 0:
            avail = 8 - (pos & 7)
            take = avail if avail < nbits else nbits
            chunk = (data[pos >> 3] >> (avail - take)) & ((1 << take) - 1)
            result = (result << take) | chunk
            pos += take
            nbits -= take
        self._pos = pos
        return result

    def read_unary(self) -> int:
        data, nbits, pos, count = self._data, self._nbits, self._pos, 0
        while pos < nbits:
            byte = data[pos >> 3]
            if (pos & 7) == 0 and byte == 0xFF:  # a whole byte of ones in one step
                pos += 8
                count += 8
            elif (byte >> (7 - (pos & 7))) & 1:
                pos += 1
                count += 1
            else:
                self._pos = pos + 1
                return count
            if count > MAX_RUN:
                raise CorruptStreamError(f"unary run exceeds {MAX_RUN} bits")
        raise CorruptStreamError("unexpected end of stream")

    def read_minimal_binary(self, g: GolombParam) -> int:
        if g.bits == 0:
            return 0
        v = self.read_bits(g.bits - 1)
        if v < g.threshold:
            return v
        return ((v << 1) | self.read_bits(1)) - g.threshold
