"""The container's CRC-32 and header checks catch corruption on both backends.

CRC-32 (zlib's polynomial 0x04C11DB7) detects every error of 1-3 bits in
messages of up to 91,607 bits, about 11 KB, and every burst of up to 32
bits.  So every such change to a stream, left unsealed, must raise
HeaderError or CorruptStreamError before any codeword is read: the
decoders' own checks behind the CRC are tested elsewhere, on streams
that container.reseal seals again after the change.
"""

import itertools
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frgc import _backend, _pure
from frgc.bitcoder import CorruptStreamError
from frgc.codec import (
    MAGIC,
    VERSION,
    HeaderError,
    StreamHeader,
    decode_stream,
    encode_stream,
    read_container,
    write_container,
)
from frgc.predictor import LpcConfig

from conftest import ENTRY_POINTS
from container import CRC_BYTES, flip_bits, leb128, payload_span, reseal

DETECTED = (HeaderError, CorruptStreamError)


HEADERS = {
    "fixed": StreamHeader(mode="fixed", rho=1, tau=16, m=5),
    "rice": StreamHeader(mode="rice", rho=1, tau=1, m=2),
    "adaptive": StreamHeader(mode="adaptive", rho=3, tau=16),
    "adaptive+raw+alphabet": StreamHeader(mode="adaptive", rho=1, tau=4, alphabet_q=200,
                                          raw_error_estimator=True),
    "lpc": StreamHeader(mode="adaptive", rho=1, tau=8, lpc=LpcConfig(2, 8, 4)),
    "lpc+fixed": StreamHeader(mode="fixed", rho=1, tau=8, m=24, lpc=LpcConfig(1, 4, 1)),
}


def stream_of(header: StreamHeader, n: int, seed: int = 3):
    """An n-symbol stream of header, with the predictions it was coded
    against (None in lpc mode)."""
    rng = np.random.default_rng(seed)
    xs = 100 + np.cumsum(rng.integers(-6, 7, size=n))
    preds = None if header.lpc else xs + rng.laplace(0.0, 2.0, size=n)
    data = encode_stream(xs, header, predictions=preds)
    assert decode_stream(data, preds) == xs.tolist()
    return data, preds


SHORT = {name: stream_of(header, 24) for name, header in HEADERS.items()}
# a stream just below 11 KB, inside the 1-3-bit guarantee
LONG = stream_of(StreamHeader(mode="fixed", rho=1, tau=16, m=900), 8700, seed=5)


def assert_detected(data: bytes, preds, changes) -> None:
    """Every change (a tuple of bit positions) to data raises HeaderError
    or CorruptStreamError."""
    for bits in changes:
        with pytest.raises(DETECTED):
            decode_stream(flip_bits(data, bits), preds)


def test_long_stream_is_within_the_guarantee():
    data, _ = LONG
    assert 10_000 < len(data) < 11_000 and 8 * len(data) <= 91_607 + 32


@pytest.mark.parametrize("name", sorted(SHORT))
def test_every_one_and_two_bit_flip_is_detected(name, backend):
    data, preds = SHORT[name]
    nbits = 8 * len(data)
    assert_detected(data, preds, ((i,) for i in range(nbits)))
    assert_detected(data, preds, itertools.combinations(range(nbits), 2))


def test_every_three_bit_flip_of_a_short_stream_is_detected(backend):
    header = StreamHeader(mode="fixed", rho=1, tau=4, m=2)
    data = encode_stream([3], header)
    assert len(data) == 16
    assert_detected(data, None, itertools.combinations(range(8 * len(data)), 3))


def test_every_one_bit_flip_of_an_11_kb_stream_is_detected(backend):
    data, preds = LONG
    assert_detected(data, preds, ((i,) for i in range(8 * len(data))))
    # and a seeded sample of its 2- and 3-bit flips, and of bursts of up to
    # 32 bits, near one another and across the whole stream
    rng = np.random.default_rng(11)
    nbits = 8 * len(data)
    spread = [rng.choice(nbits, size=int(k), replace=False) for k in rng.integers(2, 4, 2000)]
    near = [start + rng.choice(64, size=int(k), replace=False)
            for start, k in zip(rng.integers(0, nbits - 64, 2000), rng.integers(2, 4, 2000))]
    bursts = [range(start, start + int(size))
              for start, size in zip(rng.integers(0, nbits - 32, 2000),
                                     rng.integers(2, 33, 2000))]
    assert_detected(data, preds, spread + near + bursts)


@pytest.mark.parametrize("name", sorted(SHORT))
def test_every_value_of_every_header_byte_is_detected(name, backend):
    data, preds = SHORT[name]
    start, _ = payload_span(data)
    for offset in range(start):
        for value in range(256):
            if value == data[offset]:
                continue
            changed = data[:offset] + bytes((value,)) + data[offset + 1:]
            with pytest.raises(DETECTED):
                decode_stream(changed, preds)


@pytest.mark.parametrize("name", sorted(SHORT))
@given(edit=st.data())
@settings(max_examples=200, deadline=None)
def test_random_header_bytes_are_detected(name, edit, kernels):
    # the header's bytes replaced by any others, of any length, with the
    # payload and the CRC left as they are: only the same bytes decode,
    # and on either backend
    data, preds = SHORT[name]
    start, _ = payload_span(data)
    head = edit.draw(st.one_of(
        st.binary(max_size=2 * start),
        st.binary(min_size=start - 6, max_size=start - 6).map(
            lambda rest: MAGIC + bytes((VERSION,)) + data[5:6] + rest)))
    changed = head + data[start:]
    for module in (_pure, kernels):
        with pytest.MonkeyPatch.context() as patch:
            for entry in ENTRY_POINTS:
                patch.setattr(_backend, entry, getattr(module, entry))
            if changed == data:
                assert decode_stream(changed, preds) is not None
                continue
            with pytest.raises(DETECTED):
                decode_stream(changed, preds)


@st.composite
def headers(draw, payload: bytes) -> bytes:
    """Header bytes built field by field for a kind byte, from values
    mostly in range, with up to two bytes then replaced, inserted or
    deleted."""
    kind = draw(st.one_of(st.integers(0, 31), st.integers(0, 255)))
    rho = draw(st.integers(0, 70_000))
    values = [rho, draw(st.integers(rho, 70_000))]
    if kind & 3 != 1:  # every mode but adaptive writes m
        values.append(draw(st.integers(0, 70_000)))
    if kind & 0x10:
        values.append(draw(st.integers(0, 2**33)))
    if kind & 0x08:
        values += draw(st.tuples(st.integers(0, 300), st.integers(0, 70_000),
                                 st.integers(0, 70_000)))
    values += [draw(st.integers(0, 8 * len(payload) + 1)), len(payload)]
    head = bytearray(MAGIC + bytes((VERSION, kind)) + b"".join(map(leb128, values)))
    for _ in range(draw(st.integers(0, 2))):
        at, value = draw(st.integers(0, len(head) - 1)), draw(st.integers(0, 255))
        edit = draw(st.sampled_from(["replace", "insert", "delete"]))
        if edit == "delete":
            del head[at]
        else:
            head[at:at + (edit == "replace")] = bytes((value,))
    return bytes(head)


@given(edit=st.data(), payload=st.binary(max_size=24), tail=st.binary(max_size=4))
@settings(max_examples=1000, deadline=None)
def test_sealed_headers_read_back_as_written_or_raise(edit, payload, tail):
    # a header and payload sealed with their CRC: read_container raises
    # HeaderError or CorruptStreamError, or returns a header that writes
    # back to the same bytes, since each field has one form (no overlong
    # varint, no flag without its field)
    body = edit.draw(headers(payload)) + payload
    data = body + zlib.crc32(body).to_bytes(CRC_BYTES, "little") + tail
    try:
        header, view = read_container(data)
    except DETECTED:
        return
    assert data.startswith(write_container(header, bytes(view)))


def test_reseal_is_the_codecs_crc():
    for data, _ in SHORT.values():
        assert reseal(data) == data
        assert reseal(data[:-1] + bytes((data[-1] ^ 1,))) == data
