"""The bit-at-a-time Golomb writer the tests use as an oracle.

The codec writes whole arrays of codewords: frgc._pure._Packer draws
each pack of codewords over a bit image of ones with numpy, a closing
zero and one field bit plane at a time, and the compiled loops shift
bits through a 64-bit accumulator.  This writer appends one field at a
time on Python ints, so the tests can build streams, and corrupt ones,
codeword by codeword and check the array coders against it.
``code_length`` is the length of one such codeword, which the sweeps
compute for whole arrays in frgc.harness.symbol_code_lengths.
"""

from frgc.bitcoder import GolombParam


def code_length(m_value: int, g: GolombParam) -> int:
    """Total codeword length in bits for mapped residual m_value."""
    if m_value < 0:
        raise ValueError(f"mapped residual must be non-negative, got {m_value}")
    j, k = divmod(m_value, g.m)
    return j + 1 + (g.bits - 1 if k < g.threshold else g.bits)


class BitSink:
    """Accumulates bits MSB-first; finish() pads the last byte with zeros."""

    def __init__(self) -> None:
        self._buf = bytearray()
        self._acc = 0
        self._nacc = 0  # bits currently in _acc (0..7 between writes)
        self.bit_length = 0
        self._done = False

    def write_bits(self, value: int, nbits: int) -> None:
        if nbits < 0 or value >> nbits:
            raise ValueError(f"value {value} does not fit in {nbits} bits")
        if self._done:
            raise ValueError("sink already finished")
        if nbits == 0:
            return
        acc = (self._acc << nbits) | value
        nacc = self._nacc + nbits
        self.bit_length += nbits
        buf = self._buf
        while nacc >= 8:
            nacc -= 8
            buf.append((acc >> nacc) & 0xFF)
        self._acc = acc & ((1 << nacc) - 1)
        self._nacc = nacc

    def write_unary(self, j: int) -> None:
        """j ones followed by a terminating zero."""
        if j < 0:
            raise ValueError(f"unary value must be non-negative, got {j}")
        while j >= 32:
            self.write_bits(0xFFFFFFFF, 32)
            j -= 32
        self.write_bits(((1 << j) - 1) << 1, j + 1)

    def write_minimal_binary(self, k: int, g: GolombParam) -> None:
        if not 0 <= k < g.m:
            raise ValueError(f"remainder {k} out of range for m={g.m}")
        if g.bits == 0:
            return
        if k < g.threshold:
            self.write_bits(k, g.bits - 1)
        else:
            self.write_bits(k + g.threshold, g.bits)

    def finish(self) -> bytes:
        """Zero-pad to a whole byte and return the bytes written so far."""
        if not self._done:
            if self._nacc:
                self._buf.append((self._acc << (8 - self._nacc)) & 0xFF)
                self._acc = 0
                self._nacc = 0
            self._done = True
        return bytes(self._buf)
