"""The bit-at-a-time Golomb writer and reader the tests use as oracles.

The codec writes whole arrays of codewords: frgc._pure._Packer draws
each pack of codewords over a bit image of ones with numpy, a closing
zero and one field bit plane at a time, and the compiled loops shift
bits through a 64-bit accumulator.  It reads them a window at a time
(frgc._pure._decode_window) or, where m is not yet known ahead, one at
a time from a text of b"0"/b"1" bytes (frgc._pure.CodewordReader).
``BitSink`` appends one field at a time on Python ints, so the tests can
build streams, and corrupt ones, codeword by codeword and check the
array coders against it; ``BitSource`` reads one bit at a time and is
the reference for every decoder's values and errors.
``code_length`` is the length of one such codeword, which the sweeps
compute for whole arrays in frgc.harness.symbol_code_lengths.
"""

from frgc.bitcoder import MAX_RUN, CorruptStreamError, GolombParam


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
