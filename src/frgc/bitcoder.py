"""Golomb codeword primitives and the stream limits.

Bits are MSB-first within each byte.  A Golomb codeword for a mapped
residual M with parameter m is the unary quotient (floor(M/m) ones, then a
zero) followed by the remainder M mod m in minimal binary.  m = 1 emits the
unary part only.  The backends write and parse codewords a whole array at
a time; frgc._pure.CodewordReader reads one at a time, where a decoder
cannot know m ahead.  tests/bitsink.py holds the bit-at-a-time writer and
reader the tests check them against.
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

    m is one GolombParam (the writer's is cached per m, so that no call
    builds one) or an int64 array of parameters, one per value.  Returns
    (quotients, remainder fields, field widths): each codeword is its
    quotient in unary, then the field in ``width`` binary digits, as the
    decoders read them.  An array's parameters must be at most 2**52, so
    that ceil(lg m) is exact in a double.  Under an array, each quotient
    is floor(v / m) in doubles, exact for v < 2**52: a quotient that is
    not whole lies at least 1/m from the next integer, more than half an
    ulp of v / m < 2**52 / m, so it cannot round up to it.  A legal
    codeword has v <= MAX_RUN * M_MAX + M_MAX - 1 < 2**37; an array that
    holds a value >= 2**52 is divided as integers, so that the unary
    limit names its exact quotient.
    """
    if isinstance(m, GolombParam):
        b, threshold, m = m.bits, m.threshold, m.m
        q = values // m  # one int64 divisor, which numpy divides fast
    else:
        b = np.frexp(m - 1)[1].astype(np.int64)  # the bit length of m - 1
        threshold = np.left_shift(1, b) - m
        if values.size and values.max() >= 1 << 52:
            q = values // m
        else:
            q = values / m
            q = np.floor(q, out=q).astype(np.int64)
    field = values - q * m  # np.divmod takes twice as long
    wide = field >= threshold  # the field takes all b bits, offset by threshold
    field += wide * threshold
    return q, field, wide + (b - 1)


def symbol_out_of_range(t: int, x: int, lo: int, hi: int) -> CorruptStreamError:
    """The error for decoded symbol t, x, outside the stream's [lo, hi]."""
    return CorruptStreamError(f"symbol {t} decodes to {x}, outside [{lo}, {hi}]")


def check_symbol_range(symbols: np.ndarray, start: int, lo: int, hi: int) -> None:
    """symbol_out_of_range for the first of symbols, a stream's from index
    start on, outside [lo, hi]."""
    if symbols.size and (symbols.min() < lo or symbols.max() > hi):
        t = int(np.argmax((symbols < lo) | (symbols > hi)))
        raise symbol_out_of_range(start + t, int(symbols[t]), lo, hi)
