"""Bit-exact unary plus minimal-binary codewords."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frgc.bitcoder import (
    MAX_RUN,
    CorruptStreamError,
    GolombParam,
)

from bitsink import BitSink, BitSource, code_length


def bits_of(data: bytes, nbits: int) -> str:
    return "".join(f"{b:08b}" for b in data)[:nbits]


def encode_one(m_value: int, g: GolombParam) -> tuple[bytes, int]:
    sink = BitSink()
    sink.write_unary(m_value // g.m)
    sink.write_minimal_binary(m_value % g.m, g)
    return sink.finish(), sink.bit_length


# --- parameters -------------------------------------------------------------

def test_golomb_param_derived_fields():
    assert (GolombParam(1).bits, GolombParam(1).threshold) == (0, 0)
    assert (GolombParam(3).bits, GolombParam(3).threshold) == (2, 1)
    assert (GolombParam(4).bits, GolombParam(4).threshold) == (2, 0)
    assert (GolombParam(6).bits, GolombParam(6).threshold) == (3, 2)
    assert (GolombParam(8).bits, GolombParam(8).threshold) == (3, 0)


def test_golomb_param_rejects_nonpositive():
    for m in (0, -1):
        with pytest.raises(ValueError):
            GolombParam(m)


# --- unary ------------------------------------------------------------------

@pytest.mark.parametrize("j,expected", [(0, "0"), (1, "10"), (3, "1110")])
def test_unary_examples(j, expected):
    sink = BitSink()
    sink.write_unary(j)
    assert bits_of(sink.finish(), sink.bit_length) == expected


def test_unary_long_run_roundtrip():
    for j in (31, 32, 33, 64, 100, 1000):
        sink = BitSink()
        sink.write_unary(j)
        payload = sink.finish()
        assert bits_of(payload, sink.bit_length) == "1" * j + "0"
        assert BitSource(payload).read_unary() == j


def test_unary_rejects_negative():
    with pytest.raises(ValueError):
        BitSink().write_unary(-1)


# --- minimal binary ---------------------------------------------------------

@pytest.mark.parametrize(
    "k,m,expected",
    [(0, 3, "0"), (1, 3, "10"), (2, 3, "11"), (5, 8, "101"), (0, 1, ""), (2, 6, "100")],
)
def test_minimal_binary_examples(k, m, expected):
    g = GolombParam(m)
    sink = BitSink()
    sink.write_minimal_binary(k, g)
    assert bits_of(sink.finish(), sink.bit_length) == expected
    assert code_length(k, g) == 1 + len(expected)  # a zero quotient: one bit


def test_minimal_binary_rejects_out_of_range():
    g = GolombParam(3)
    for k in (-1, 3, 4):
        with pytest.raises(ValueError):
            BitSink().write_minimal_binary(k, g)


@given(m=st.integers(1, 4096), data=st.data())
@settings(max_examples=300)
def test_minimal_binary_roundtrip(m, data):
    g = GolombParam(m)
    ks = data.draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=50))
    sink = BitSink()
    for k in ks:
        sink.write_minimal_binary(k, g)
    src = BitSource(sink.finish())
    assert [src.read_minimal_binary(g) for _ in ks] == ks


# --- full codewords ---------------------------------------------------------

def test_codeword_example():
    # M = 7, m = 3: quotient 2, remainder 1 -> 110 then 10
    payload, nbits = encode_one(7, GolombParam(3))
    assert bits_of(payload, nbits) == "11010"
    assert code_length(7, GolombParam(3)) == 5


@pytest.mark.parametrize(
    "m_value,m,expected",
    [(0, 1, 1), (5, 3, 4), (4, 4, 4), (0, 3, 2), (2, 3, 3), (10, 1, 11)],
)
def test_code_length_examples(m_value, m, expected):
    g = GolombParam(m)
    assert code_length(m_value, g) == expected
    _, nbits = encode_one(m_value, g)
    assert nbits == expected


@given(m=st.integers(1, 512), m_value=st.integers(0, 100_000))
@settings(max_examples=300)
def test_code_length_matches_emitted_bits(m, m_value):
    g = GolombParam(m)
    _, nbits = encode_one(m_value, g)
    assert nbits == code_length(m_value, g)


def test_code_length_rejects_negative():
    with pytest.raises(ValueError):
        code_length(-1, GolombParam(2))


# --- streams ----------------------------------------------------------------

@given(
    m=st.integers(1, 200),
    values=st.lists(st.integers(0, 5000), min_size=0, max_size=200),
)
@settings(max_examples=300)
def test_stream_roundtrip(m, values):
    g = GolombParam(m)
    sink = BitSink()
    for v in values:
        sink.write_unary(v // m)
        sink.write_minimal_binary(v % m, g)
    payload = sink.finish()
    assert len(payload) == (sink.bit_length + 7) // 8
    src = BitSource(payload)
    out = []
    for _ in values:
        j = src.read_unary()
        out.append(j * m + src.read_minimal_binary(g))
    assert out == values
    assert src.bits_left < 8


def test_padding_is_zero_bits():
    sink = BitSink()
    sink.write_bits(0b1011, 4)
    payload = sink.finish()
    assert payload == bytes([0b10110000])


def test_write_bits_read_bits_roundtrip():
    sink = BitSink()
    chunks = [(0, 1), (1, 1), (0b101, 3), (0xDEADBEEF, 32), (0x1FFFF, 17)]
    for value, nbits in chunks:
        sink.write_bits(value, nbits)
    src = BitSource(sink.finish())
    for value, nbits in chunks:
        assert src.read_bits(nbits) == value


def test_bits_left_counts_down():
    src = BitSource(b"\xff\x00")
    assert src.bits_left == 16
    src.read_bits(5)
    assert src.bits_left == 11


def test_position_moves_the_reader():
    src = BitSource(b"\x0f\xa0")
    src.read_bits(3)
    assert src.position == 3
    src.position = 4
    assert src.read_bits(4) == 0xF and src.position == 8
    src.position = 16
    assert src.bits_left == 0
    for bad in (-1, 17):
        with pytest.raises(ValueError, match="bit position"):
            src.position = bad
    assert src.position == 16


# --- corruption -------------------------------------------------------------

def test_read_past_end_raises():
    src = BitSource(b"\xa0")
    src.read_bits(8)
    with pytest.raises(CorruptStreamError):
        src.read_bits(1)


def test_unary_run_overflow_raises():
    # a run of MAX_RUN ones reads; one more is corruption, closed by its
    # zero or not, and the guard fires before the end of the payload
    assert BitSource(b"\xff" * (MAX_RUN // 8) + b"\x7f").read_unary() == MAX_RUN
    for payload in (b"\xff" * (MAX_RUN // 8) + b"\xbf", b"\xff" * (MAX_RUN // 4)):
        with pytest.raises(CorruptStreamError, match=f"unary run exceeds {MAX_RUN} bits"):
            BitSource(payload).read_unary()


def test_unary_hits_end_of_stream():
    src = BitSource(b"\xff")
    with pytest.raises(CorruptStreamError):
        src.read_unary()


def test_truncated_minimal_binary_raises():
    g = GolombParam(8)
    sink = BitSink()
    sink.write_minimal_binary(5, g)
    payload = sink.finish()
    src = BitSource(payload[:0])
    with pytest.raises(CorruptStreamError):
        src.read_minimal_binary(g)


# --- structure over a dense range --------------------------------------------

def test_lengths_monotone_in_value():
    for m in (1, 2, 3, 5, 8, 21, 64):
        g = GolombParam(m)
        lengths = [code_length(v, g) for v in range(1024)]
        assert all(a <= b for a, b in zip(lengths, lengths[1:]))


def test_prefix_free_small():
    # dense check on small parameters; the wide sweep lives in acceptance
    for m in range(1, 17):
        g = GolombParam(m)
        words = []
        for v in range(4 * m + 8):
            payload, nbits = encode_one(v, g)
            words.append(bits_of(payload, nbits))
        assert len(set(words)) == len(words)
        for w in sorted(words):
            assert sum(other.startswith(w) for other in words) == 1
