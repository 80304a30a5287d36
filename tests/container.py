"""The stream container as the tests see it: [header][payload][CRC-32].

reseal recomputes a stream's CRC with zlib alone, not through the codec,
so that a test can mutate a stream and still reach the decoder's own
checks behind the CRC.  leb128 writes a varint for tests that build
malformed headers byte by byte.  payload_span, payload_of and
with_payload take a stream with no trailing bytes.
"""

import zlib

from frgc import codec

CRC_BYTES = 4


def reseal(data: bytes) -> bytes:
    """data, whose last four bytes are its CRC, with the CRC-32 of the rest."""
    body = bytes(data[:-CRC_BYTES])
    return body + zlib.crc32(body).to_bytes(CRC_BYTES, "little")


def leb128(value: int) -> bytes:
    """value >= 0 as an unsigned LEB128 varint, low 7 bits first."""
    out = bytearray()
    while True:
        low, value = value & 0x7F, value >> 7
        out.append(low | (0x80 if value else 0))
        if not value:
            return bytes(out)


def payload_span(data: bytes) -> tuple[int, int]:
    """The offsets of the first payload byte and of the CRC in data."""
    end = len(data) - CRC_BYTES
    return end - len(codec.read_container(data)[1]), end


def payload_of(data: bytes) -> bytes:
    """The payload bytes of data, between its header and its CRC."""
    start, end = payload_span(data)
    return bytes(data[start:end])


def with_payload(data: bytes, payload: bytes) -> bytes:
    """data with payload in place of its own: the header's last field, the
    payload's length, rewritten, and the CRC resealed."""
    start, end = payload_span(data)
    head = bytes(data[:start - len(leb128(end - start))])
    return reseal(head + leb128(len(payload)) + bytes(payload) + bytes(CRC_BYTES))


def flip_bits(data: bytes, positions) -> bytes:
    """data with each bit at positions inverted, bit 0 the top bit of byte 0."""
    out = bytearray(data)
    for pos in positions:
        out[pos // 8] ^= 0x80 >> (pos % 8)
    return bytes(out)
