"""Container format, online estimator, and stream round-trips."""

import math
import warnings
import zlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frgc import _estcore, analysis, bitcoder, codec, harness, predictor, qmap
from frgc._pure import CodewordReader
from frgc.bitcoder import CorruptStreamError, GolombParam
from frgc.codec import (
    MODE_ADAPTIVE,
    MODE_FIXED,
    MODE_RICE,
    HeaderError,
    StreamHeader,
    decode_stream,
    decode_symbol,
    encode_stream,
    read_container,
    write_container,
)
from frgc.predictor import LpcConfig
from frgc.qmap import SYMBOL_MAX, SYMBOL_MIN, Precision, round_prediction

from bitsink import BitSink, code_length
from container import CRC_BYTES, leb128, payload_of, payload_span, reseal, with_payload


def bits_of(data: bytes, nbits: int) -> str:
    return "".join(f"{b:08b}" for b in data)[:nbits]


# --- header -----------------------------------------------------------------

def test_header_size():
    # magic, version, kind, then one byte each for rho, tau, m, count and
    # length; the CRC-32 follows the payload
    h = StreamHeader(mode=MODE_FIXED, rho=1, tau=4, m=2)
    data = write_container(h, b"\xab\xcd", 9)
    head = b"FRGC" + bytes((4, 0, 1, 4, 2, 9, 2))
    crc = zlib.crc32(head + b"\xab\xcd").to_bytes(CRC_BYTES, "little")
    assert data == head + b"\xab\xcd" + crc
    assert len(write_container(h, b"")) == 11 + CRC_BYTES
    # adaptive mode writes no m
    assert len(write_container(StreamHeader(mode=MODE_ADAPTIVE, rho=1, tau=16), b"")) == 14
    # every flag: kind 1 | raw 4 | lpc 8 | alphabet 16, and two-byte varints
    h = StreamHeader(mode=MODE_ADAPTIVE, rho=3, tau=200, alphabet_q=300,
                     lpc=LpcConfig(2, 200, 16), raw_error_estimator=True)
    assert write_container(h, b"\x00", 5)[:-CRC_BYTES] == (
        b"FRGC" + bytes((4, 0x1D, 3, 0xC8, 0x01, 0xAC, 0x02, 2, 0xC8, 0x01, 16, 5, 1, 0)))
    # each field at its bound takes the most bytes its range needs: 3 for
    # rho, tau and m, 5 for alphabet_q, 2, 3 and 3 for the lpc fields, 10
    # for the count
    top = StreamHeader(mode=MODE_FIXED, rho=0xFFFF, tau=0xFFFF, m=0xFFFF,
                       alphabet_q=0xFFFFFFFF, count=2**64 - 1,
                       lpc=LpcConfig(255, 65535, 65535))
    data = write_container(top, b"")
    assert len(data) == 6 + 3 * 3 + 5 + 2 + 3 + 3 + 10 + 1 + CRC_BYTES
    with pytest.raises(codec.TruncatedStreamError, match="payload bits"):
        read_container(data)


@pytest.mark.parametrize(
    "header",
    [
        StreamHeader(mode=MODE_FIXED, rho=1, tau=4, m=2),
        StreamHeader(mode=MODE_RICE, rho=1, tau=1, m=1, count=77),
        StreamHeader(mode=MODE_ADAPTIVE, rho=4, tau=5, alphabet_q=128),
        StreamHeader(mode=MODE_ADAPTIVE, rho=1, tau=16, raw_error_estimator=True),
        StreamHeader(mode=MODE_FIXED, rho=1, tau=4, m=9, lpc=LpcConfig(2, 16, 16)),
        StreamHeader(
            mode=MODE_ADAPTIVE, rho=1, tau=64, count=2**13, lpc=LpcConfig(8, 255, 32)
        ),
    ],
)
def test_header_roundtrip(header):
    payload = b"payload follows".ljust(header.count // 8, b"-")
    data = write_container(header, payload)
    back, view = read_container(data + b"trailing bytes")
    assert back == header
    assert bytes(view) == payload
    assert payload_span(data) == (len(data) - CRC_BYTES - len(payload), len(data) - CRC_BYTES)


def test_header_pack_writes_a_count_in_range():
    h = StreamHeader(mode=MODE_FIXED, rho=1, tau=4, m=2, count=5)
    top = 0xFFFFFFFFFFFFFFFF
    for count in (0, 9, top):
        assert write_container(h, b"", count) == write_container(replace(h, count=count), b"")
    for count in (-1, top + 1):
        with pytest.raises(HeaderError, match=f"count out of range: {count}"):
            write_container(h, b"", count)


def test_header_precision_property():
    h = StreamHeader(mode=MODE_FIXED, rho=4, tau=5, m=2)
    assert h.precision == Precision(4, 5)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(mode="banana", rho=1, tau=4, m=2),
        dict(mode=MODE_FIXED, rho=0, tau=4, m=2),
        dict(mode=MODE_FIXED, rho=5, tau=4, m=2),
        dict(mode=MODE_FIXED, rho=1, tau=70000, m=2),
        dict(mode=MODE_FIXED, rho=1, tau=4, m=0),
        dict(mode=MODE_RICE, rho=1, tau=2, m=1),
        dict(mode=MODE_RICE, rho=1, tau=1, m=1, raw_error_estimator=True),
        dict(mode=MODE_ADAPTIVE, rho=1, tau=16, m=3),
    ],
)
def test_header_validate_rejects(kwargs):
    # a StreamHeader is valid by construction, also when made by replace
    with pytest.raises(HeaderError):
        StreamHeader(**kwargs)
    with pytest.raises(HeaderError):
        replace(StreamHeader(mode=MODE_FIXED, rho=1, tau=4, m=2), **kwargs)


def container(*fields: bytes, kind: int = 0, payload: bytes = b"\x00") -> bytes:
    """A stream of version 4, kind and fields written byte by byte, and payload,
    with its CRC."""
    return reseal(b"FRGC" + bytes((4, kind)) + b"".join(fields) + payload + bytes(CRC_BYTES))


def test_unpack_rejects_mutations():
    # fixed mode at 1/4, m = 2, count 3, a one-byte payload: every stream
    # below is resealed, so it is the header's checks that raise
    one = leb128
    good = container(one(1), one(4), one(2), one(3), one(1))
    assert decode_stream(good) == [0, 0, 0]
    assert good == write_container(StreamHeader(mode=MODE_FIXED, rho=1, tau=4, m=2),
                                   b"\x00", 3)
    for cut in range(len(good)):
        with pytest.raises(HeaderError):
            read_container(good[:cut])

    def mutated(offset, value, data=good):
        buf = bytearray(data)
        buf[offset] = value
        return reseal(bytes(buf))

    cases = [
        (mutated(0, ord("X")), "bad magic"),
        (mutated(4, 99), "unsupported version 99"),
        (mutated(4, 3), "unsupported version 3"),
        (mutated(5, 3), "unknown mode code 3"),
        (mutated(5, 0x20), "unknown kind bits 0x20"),
        (mutated(5, 0x80), "unknown kind bits 0x80"),
        (mutated(5, 0x04), "raw estimator flag only applies to adaptive mode"),
        (mutated(5, 0x02), "rice mode requires rho=tau=1"),
        (mutated(6, 0), "rho/tau out of range"),
        (mutated(6, 5), "rho must not exceed tau"),
        (mutated(8, 0), "fixed mode needs m in"),
        # an overlong form, a varint past its field's bytes, a value past its bound
        (container(b"\x81\x00", one(4), one(2), one(3), one(1)), "overlong varint for the rho"),
        (container(one(1), b"\x84\x80\x00", one(2), one(3), one(1)), "overlong varint for the tau"),
        (container(b"\x81\x80\x80\x00", one(4), one(2), one(3), one(1)),
         "the rho runs past its 3 bytes"),
        (container(one(1), one(0x10000), one(2), one(3), one(1)), "tau out of range: 65536"),
        (container(one(1), one(4), one(0x10000), one(3), one(1)), "m out of range: 65536"),
        (container(one(1), one(4), one(2), one(2**64), one(1)), "count out of range"),
        (container(one(1), one(4), one(2), one(3), one(2**64)), "payload length out of range"),
        (container(one(1), one(4), one(2), one(0), one(1), kind=0x10), "alphabet_q flagged but 0"),
        (container(one(1), one(4), one(2), one(2**32), one(3), one(1), kind=0x10),
         "alphabet_q out of range"),
        (container(one(1), one(4), one(2), one(0), one(4), one(4), one(3), one(1), kind=0x08),
         "order must be in"),
        (container(one(1), one(4), one(2), one(256), one(4), one(4), one(3), one(1), kind=0x08),
         "lpc order out of range: 256"),
        (container(one(1), one(4), one(2), one(2), one(65536), one(4), one(3), one(1), kind=0x08),
         "lpc window out of range"),
        (container(one(1), one(4), one(2), one(2), one(4), one(0), one(3), one(1), kind=0x08),
         "refit interval must be in"),
        # the header's count against its payload length, and that length
        # against the bytes present
        (container(one(1), one(4), one(2), one(9), one(1)), "count 9 exceeds the 8 payload bits"),
        (container(one(1), one(4), one(2), one(3), one(2)), "need 17 bytes, the stream holds 16"),
    ]
    for data, message in cases:
        with pytest.raises(HeaderError, match=message):
            decode_stream(data)
    # the CRC is checked last, and only it sees a changed payload byte
    bad = bytearray(good)
    bad[-1] ^= 1
    with pytest.raises(CorruptStreamError, match="CRC-32 mismatch") as info:
        decode_stream(bytes(bad))
    assert not isinstance(info.value, HeaderError)
    with pytest.raises(CorruptStreamError, match="CRC-32 mismatch"):
        decode_stream(mutated(11, 0x80)[:-CRC_BYTES] + good[-CRC_BYTES:])


# --- estimator --------------------------------------------------------------

def test_estimator_update_example():
    # tau=4, prediction 0.75 -> numerator 3; symbol 0 adds |0 - 3| = 3
    h = StreamHeader(mode=MODE_ADAPTIVE, rho=1, tau=4)
    _, trace = encode_stream([0], h, predictions=[0.75], collect_trace=True)
    assert trace == [(1, 1, 3)]


def test_select_m_example():
    # ln theta = -t*tau/S = -16/16
    assert _estcore.select_m(4, 16, 4) == analysis.lookup_m(math.exp(-1.0)) == 1
    assert _estcore.select_m(10, 100) == analysis.lookup_m(math.exp(-0.1))


def test_select_m_cold_start():
    assert _estcore.select_m(0, 0, 4) == 1
    assert _estcore.select_m(0, 0.0) == 1
    assert _estcore.select_m(5, 0, 4) == 1  # only zero residuals so far


def test_select_m_extremes():
    assert _estcore.select_m(100, 1, 16) == 1
    assert _estcore.select_m(1, 10**15, 16) == _estcore.MAX_ADAPTIVE_M
    assert _estcore.select_m(1, _estcore.EST_SATURATION, 0xFFFF) == 64


def test_log_boundaries_match_phi_roots():
    table = _estcore.LOG_BOUNDARIES
    assert len(table) == _estcore.MAX_ADAPTIVE_M
    assert all(a < b for a, b in zip(table, table[1:]))
    for k, lb in enumerate(table, start=1):
        ref = 2 * math.log(analysis.phi_root(k))
        assert abs(lb - ref) <= 2 * math.ulp(ref), k


def test_select_m_agrees_with_exp_rule():
    # the paper's rule on theta = exp(-t*tau/S), clamped to (0, 1)
    rng = np.random.default_rng(17)
    for _ in range(20_000):
        t = int(rng.integers(1, 10**6))
        tau = int(rng.integers(1, 0x10000))
        s = int(rng.integers(1, t * tau * 200))
        theta = min(max(math.exp(-t * tau / s), 1e-300), 0.999)
        assert _estcore.select_m(t, s, tau) == analysis.lookup_m(theta)


def test_estimator_saturates():
    # symbols 0 against numerators n: each adds |16*0 - n| to the sum
    sat = _estcore.EST_SATURATION
    h = StreamHeader(mode=MODE_ADAPTIVE, rho=1, tau=16)
    n = np.array([sat - 1, 1000, 1000])
    _, trace = codec._estimator_trace(np.zeros(3, np.int64), n / 16.0, n, h)
    assert trace == [(1, 1, sat - 1), (64, 2, sat), (64, 3, sat)]


@given(
    rs=st.lists(st.integers(-(2**19), 2**19), min_size=1, max_size=50),
    tau=st.integers(1, 64),
)
@settings(max_examples=200)
def test_estimator_accumulates_abs_numerators(rs, tau):
    # symbol 0 against prediction r/tau leaves residual numerator -r; its
    # mapped value, at most 2*|r|/tau, keeps every quotient within
    # bitcoder.MAX_RUN = 2**20, so the encoder accepts the stream
    h = StreamHeader(mode=MODE_ADAPTIVE, rho=1, tau=tau)
    _, trace = encode_stream([0] * len(rs), h, predictions=[r / tau for r in rs],
                             collect_trace=True)
    total = 0
    for i, (_, t, s) in enumerate(trace):
        total += abs(rs[i])
        assert (t, s) == (i + 1, total)


def test_v1_stream_rejected():
    h = StreamHeader(mode=MODE_ADAPTIVE, rho=1, tau=16)
    data = bytearray(encode_stream([3, 1, 4], h, predictions=[0.0] * 3))
    assert data[4] == codec.VERSION == 4
    data[4] = 1
    with pytest.raises(HeaderError, match="version"):
        decode_stream(bytes(data), predictions=[0.0] * 3)


# --- symbol coding ----------------------------------------------------------

def write_symbol(x: int, n: int, tau: int, g: GolombParam, sink: BitSink) -> None:
    value = qmap.map_residual(qmap.residual(x, n, tau), tau)
    sink.write_unary(value // g.m)
    sink.write_minimal_binary(value % g.m, g)


def test_encode_symbol_example():
    # 2 against [0.70] = 3/4 maps to 2; m = 2 codes it as unary 1, remainder 0
    n = round_prediction(0.70, Precision(1, 4))
    sink = BitSink()
    write_symbol(2, n, 4, GolombParam(2), sink)
    assert bits_of(sink.finish(), sink.bit_length) == "100"
    assert decode_symbol(GolombParam(2), CodewordReader(b"\x80"), 0) == (2, 3)
    assert qmap.unmap(2, n, 4) == 2


def test_symbol_roundtrip_sequence():
    n = round_prediction(-2.3, Precision(1, 8))
    g = GolombParam(3)
    xs = [0, -1, 5, -2, 3, -7]
    sink = BitSink()
    for x in xs:
        write_symbol(x, n, 8, g, sink)
    reader = CodewordReader(sink.finish())
    got, pos = [], 0
    for _ in xs:
        v, pos = decode_symbol(g, reader, pos)
        got.append(qmap.unmap(v, n, 8))
    assert got == xs and pos == sink.bit_length


# --- streams: fixed and rice --------------------------------------------------

def test_zero_stream_is_one_zero_byte():
    h = StreamHeader(mode=MODE_FIXED, rho=1, tau=1, m=1)
    data = encode_stream([0] * 8, h, predictions=[0.0] * 8)
    assert payload_of(data) == b"\x00"
    assert decode_stream(data, predictions=[0.0] * 8) == [0] * 8


def test_fixed_stream_count_in_header():
    h = StreamHeader(mode=MODE_FIXED, rho=1, tau=4, m=2)
    data = encode_stream([1, 2, 3], h, predictions=[0.0, 0.0, 0.0])
    back, _ = read_container(data)
    assert back.count == 3


def test_rice_equals_unit_fixed():
    xs = [5, 0, -3, 12, 7, -9]
    preds = [0.0] * len(xs)
    rice = encode_stream(xs, StreamHeader(mode=MODE_RICE, rho=1, tau=1, m=1), predictions=preds)
    fixed = encode_stream(xs, StreamHeader(mode=MODE_FIXED, rho=1, tau=1, m=1), predictions=preds)
    assert payload_of(rice) == payload_of(fixed)
    assert decode_stream(rice, predictions=preds) == xs


def test_empty_stream_roundtrips():
    for h in (
        StreamHeader(mode=MODE_FIXED, rho=1, tau=4, m=2),
        StreamHeader(mode=MODE_ADAPTIVE, rho=1, tau=16),
        StreamHeader(mode=MODE_RICE, rho=1, tau=1, m=1),
    ):
        data = encode_stream([], h)
        assert payload_of(data) == b""
        assert len(data) == (10 if h.mode == MODE_ADAPTIVE else 11) + CRC_BYTES
        assert decode_stream(data) == []


def test_trailing_bytes_are_ignored():
    h = StreamHeader(mode=MODE_FIXED, rho=1, tau=1, m=3)
    data = encode_stream([7, 1, 2], h, predictions=[0.0] * 3)
    assert decode_stream(data + b"\xff\xff", predictions=[0.0] * 3) == [7, 1, 2]


def test_payload_length_matches_code_lengths_fixed():
    rng = np.random.default_rng(2)
    xs = rng.integers(-500, 500, size=400).tolist()
    preds = [x + float(d) for x, d in zip(xs, rng.normal(0, 3, size=400))]
    for m, rho, tau in ((1, 1, 1), (3, 1, 4), (8, 4, 5), (21, 1, 16)):
        h = StreamHeader(mode=MODE_FIXED, rho=rho, tau=tau, m=m)
        data = encode_stream(xs, h, predictions=preds)
        g = GolombParam(m)
        total = 0
        for x, p in zip(xs, preds):
            n = round_prediction(p, Precision(rho, tau))
            total += code_length(
                qmap.map_residual(qmap.residual(x, n, tau), tau), g)
        assert len(payload_of(data)) == (total + 7) // 8


# --- streams: hypothesis round-trips -----------------------------------------

def _stream_case():
    return st.tuples(
        st.sampled_from([MODE_FIXED, MODE_ADAPTIVE, MODE_RICE]),
        st.integers(1, 64),  # tau (ignored for rice)
        st.integers(1, 64),  # rho seed, folded below tau
        st.integers(1, 64),  # m for fixed
        st.lists(st.integers(-(10**6), 10**6), min_size=0, max_size=80),
        st.randoms(use_true_random=False),
    )


@given(case=_stream_case())
@settings(max_examples=200, deadline=None)
def test_stream_roundtrip_external_predictions(case):
    mode, tau, rho_seed, m, xs, rnd = case
    if mode == MODE_RICE:
        rho = tau = m = 1
    else:
        rho = 1 + rho_seed % tau
        m = m if mode == MODE_FIXED else 0
    preds = [x + rnd.uniform(-40.0, 40.0) for x in xs]
    h = StreamHeader(mode=mode, rho=rho, tau=tau, m=m)
    data = encode_stream(xs, h, predictions=preds)
    assert decode_stream(data, predictions=preds) == xs


@given(
    xs=st.lists(st.integers(0, 4000), min_size=1, max_size=120),
    tau=st.sampled_from([1, 2, 16, 64]),
    raw=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_adaptive_roundtrip_and_trace_lockstep(xs, tau, raw):
    preds = [0.0] + [float(x) for x in xs[:-1]]
    h = StreamHeader(mode=MODE_ADAPTIVE, rho=1, tau=tau, raw_error_estimator=raw)
    data, enc_trace = encode_stream(xs, h, predictions=preds, collect_trace=True)
    out, dec_trace = decode_stream(data, predictions=preds, collect_trace=True)
    assert out == xs
    assert enc_trace == dec_trace
    assert len(enc_trace) == len(xs)
    # the types as well: S is the integer numerator sum, or the raw float sum
    types = (int, int, float if raw else int)
    assert all(tuple(map(type, entry)) == types for entry in enc_trace + dec_trace)
    if xs:
        assert enc_trace[0][0] == 1  # cold start codes with m = 1


def test_adaptive_m_choices_follow_public_estimator():
    # co-simulate the coder's m schedule with the public estimator API
    rng = np.random.default_rng(9)
    xs = rng.integers(-200, 200, size=500).tolist()
    preds = [x + float(d) for x, d in zip(xs, rng.normal(0, 6, size=500))]
    tau = 16
    h = StreamHeader(mode=MODE_ADAPTIVE, rho=1, tau=tau)
    _, trace = encode_stream(xs, h, predictions=preds, collect_trace=True)
    # the paper's rule: m = lookup_m(theta) with theta = exp(-t*tau/S)
    t = s = 0
    for (m_used, t_seen, s_seen), x, p in zip(trace, xs, preds):
        expected = 1 if t == 0 else analysis.lookup_m(math.exp(-t * tau / s))
        assert m_used == expected
        n = round_prediction(p, Precision(1, tau))
        t += 1
        s += abs(qmap.residual(x, n, tau))
        assert (t_seen, s_seen) == (t, s)


# --- streams: corruption ------------------------------------------------------

def test_truncated_payload_raises():
    h = StreamHeader(mode=MODE_FIXED, rho=1, tau=4, m=3)
    xs = list(range(50))
    data = encode_stream(xs, h, predictions=[0.0] * 50)
    start, end = payload_span(data)
    for cut in (end - 3, start + 1, end + 1):  # in the payload, and in the CRC
        with pytest.raises(CorruptStreamError, match="need .* bytes, the stream holds"):
            decode_stream(data[:cut], predictions=[0.0] * 50)


def test_header_count_beyond_payload_bits_raises():
    # every codeword is at least one bit, so count <= 8 * payload bytes
    h = StreamHeader(mode=MODE_FIXED, rho=1, tau=4, m=3)
    data = encode_stream(list(range(50)), h, predictions=[0.0] * 50)
    payload = payload_of(data)
    header = read_container(data)[0]
    for count in (8 * len(payload) + 1, 1 << 50):
        bad = write_container(replace(header, count=count), payload)
        with pytest.raises(HeaderError, match="payload bits"):
            decode_stream(bad)


@pytest.mark.parametrize("mode,m", [(MODE_FIXED, 3), (MODE_ADAPTIVE, 0)])
def test_count_disagreeing_with_predictions_raises_header_error(mode, m):
    # a flipped count bit no longer matches the external predictions; the
    # payload still holds enough bits, so it is the predictions that disagree
    h = StreamHeader(mode=mode, rho=1, tau=4, m=m)
    preds = [0.5 * i for i in range(50)]
    data = encode_stream(list(range(50)), h, predictions=preds)
    # the one-byte count comes just before the payload's length, and the
    # stream is resealed so that its CRC holds
    start, end = payload_span(data)
    count_at = start - len(leb128(end - start)) - 1
    assert data[count_at] == 50
    for bit in (0, 1, 5):
        bad = bytearray(data)
        bad[count_at] ^= 1 << bit
        bad = reseal(bytes(bad))
        assert read_container(bad)[0].count == 50 ^ (1 << bit)
        with pytest.raises(HeaderError, match="predictions") as info:
            decode_stream(bad, predictions=preds)
        assert not isinstance(info.value, CorruptStreamError)
    # the encoder's own count comes from the symbols: a mismatch there is the
    # caller's, a plain ValueError
    with pytest.raises(ValueError) as info:
        encode_stream(list(range(50)), h, predictions=preds[:-1])
    assert not isinstance(info.value, HeaderError)


def test_finite_predictions_past_the_range_overflow_without_a_warning():
    # tau * 1e308 is past the float limit: the rounding bounds the extreme
    # predictions before it scales any, so encode and decode name the
    # range, and no RuntimeWarning is raised on the way; NaN and +-inf are
    # still told apart as not finite
    header = StreamHeader(mode=MODE_ADAPTIVE, tau=16, raw_error_estimator=True)
    xs = np.zeros(300, np.int64)
    data = encode_stream(xs, header)
    pred = np.resize([1e308, -1e308], 300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p in (pred, pred[:1], -pred[:1]):
            with pytest.raises(ValueError, match="overflows the residual range"):
                encode_stream(xs[:p.size], header, p)
        with pytest.raises(ValueError, match="overflows the residual range"):
            decode_stream(data, pred)
        for bad in (math.nan, math.inf, -math.inf):
            p = pred.copy()
            p[7] = bad
            with pytest.raises(ValueError, match="predictions must be finite"):
                encode_stream(xs, header, p)
            with pytest.raises(ValueError, match="predictions must be finite"):
                decode_stream(data, p)


def test_round_predictions_rejects_int64_overflow():
    # n = rho*k would wrap: 2**61 * 65535
    with pytest.raises(ValueError, match="overflows"):
        codec._round_predictions(np.array([2.0 ** 61]), 0xFFFF, 0xFFFF)


def test_map_vector_rejects_int64_overflow():
    # n fits, but 2*(tau*x - n) would wrap for x = SYMBOL_MAX
    n, peak = codec._round_predictions(np.array([-(2.0 ** 62 - 1024)]), 1, 1)
    with pytest.raises(ValueError, match="overflows"):
        codec._map_vector(np.array([SYMBOL_MAX], dtype=np.int64), n, 1, peak)


def test_encode_stream_takes_the_symbol_extremes_once(monkeypatch):
    # the range check's smallest and largest symbol, and the rounding's
    # largest |numerator|, go on to the mapping's overflow bound
    seen = []
    real = codec._map_vector
    monkeypatch.setattr(codec, "_map_vector", lambda *a: seen.append(a[3:]) or real(*a))
    encode_stream(np.array([5, -3, 7]), StreamHeader(mode=MODE_FIXED, m=2))
    assert seen == [(0, (-3, 7))]
    seen.clear()
    encode_stream(np.array([5, -3, 7]), StreamHeader(mode=MODE_FIXED, rho=3, m=2),
                  [0.0, -2.0, 1.0])
    assert seen == [(3 * 11, (-3, 7))]  # -2.0 rounds to -11 * 3/16


def test_decode_stream_holds_no_view_of_a_bytearray():
    # a caller that reads a stream into a bytearray can grow it and decode
    # again while it handles the error for the part it had
    xs = list(range(100))
    data = encode_stream(xs, StreamHeader(mode=MODE_FIXED, m=3))
    buf = bytearray(data[:40])
    with pytest.raises(CorruptStreamError):
        try:
            decode_stream(buf)
        except CorruptStreamError:
            buf.extend(data[40:])
            raise
    assert decode_stream(buf) == decode_stream(memoryview(data)) == xs


@pytest.mark.parametrize("view", [lambda b: memoryview(b).cast("Q"),
                                  lambda b: np.frombuffer(b, np.int64)],
                         ids=["memoryview-Q", "numpy-int64"])
def test_decode_stream_reads_a_buffer_of_wide_items_as_bytes(view):
    # the header and the payload are read from the same bytes, whatever
    # the size of the buffer's items
    xs = list(range(-50, 50))
    for header in (StreamHeader(mode=MODE_FIXED, m=3), StreamHeader(mode=MODE_ADAPTIVE)):
        data = encode_stream(xs, header)
        data += bytes(-len(data) % 8)  # the pad is past the count's codewords
        assert decode_stream(view(data)) == xs
    with pytest.raises(HeaderError, match="bad magic"):
        decode_stream(np.arange(40))
    for wrong in ("FRGC" * 10, list(data)):
        with pytest.raises(TypeError):
            decode_stream(wrong)


@pytest.mark.parametrize("rho,tau", [(1, 1), (3, 16), (0xFFFF, 0xFFFF)])
def test_encode_stream_bounds_the_mapping_exactly(rho, tau):
    # tau*max|x| + max|n| < 2**62, exactly: for each sign of the symbol and
    # of the numerator, with a small numerator of the other sign beside it,
    # the least |x| that reaches 2**62 raises and one less is mapped (to a
    # codeword longer than the format allows: the writer refuses it)
    header = StreamHeader(mode=MODE_FIXED, rho=rho, tau=tau, m=1)
    p = Precision(rho, tau)
    for sn in (1, -1):
        pred = [sn * ((1 << 62) - 1000 * tau) / tau, -sn * 8.0]
        n = round_prediction(pred[0], p)
        assert n * sn > 0 and abs(round_prediction(pred[1], p)) < abs(n)
        edge = -(-((1 << 62) - abs(n)) // tau)  # the least |x| reaching 2**62
        # reached exactly, but at 0xFFFF/0xFFFF, where every sum is a multiple of 0xFFFF
        assert tau * edge + abs(n) == 1 << 62 or rho == tau == 0xFFFF
        for sx in (1, -1):
            with pytest.raises(ValueError, match="overflows the residual range"):
                encode_stream([sx * edge, 0], header, pred)
            with pytest.raises(ValueError, match="unary limit"):
                encode_stream([sx * (edge - 1), 0], header, pred)
    # a NaN beside an overflowing prediction is told apart, in either order
    for pred in ([math.nan, 1e30], [-1e30, math.nan]):
        with pytest.raises(ValueError, match="predictions must be finite"):
            encode_stream([0, 0], header, pred)
    # an empty stream has no extremes and no numerators to bound
    for h in (header, StreamHeader(mode=MODE_ADAPTIVE, rho=rho, tau=tau)):
        data, trace = encode_stream([], h, [], collect_trace=True)
        assert data == write_container(replace(h, count=0), b"")
        assert trace == ([] if h.mode == MODE_ADAPTIVE else None)
        assert decode_stream(data, []) == []


@pytest.mark.parametrize("rho,tau", [(1, 1), (3, 16), (0xFFFF, 0xFFFF)])
def test_map_vector_exact_at_prediction_limit(rho, tau):
    # |n| just under the accepted limit still maps like the scalar qmap
    k = ((1 << 62) - 1 - tau * (SYMBOL_MAX + 1)) // rho - 4096
    preds = np.array([k, -k], dtype=np.float64) * rho / tau
    n, peak = codec._round_predictions(preds, rho, tau)
    xs = np.array([-SYMBOL_MAX - 1, SYMBOL_MAX], dtype=np.int64)
    mapped = codec._map_vector(xs, n, tau, peak)[0].tolist()
    for x, ni, got in zip(xs.tolist(), n.tolist(), mapped):
        assert got == qmap.map_residual(qmap.residual(x, ni, tau), tau)


@st.composite
def twin_case(draw):
    """(rho, tau, ties, predictions, symbols) for the vector/scalar twins.

    The predictions are grid ties (k + 1/2)*rho/tau of both signs (exact
    when tau is a power of two), arbitrary floats, and magnitudes whose
    numerators come within 0.1% of the 2**62 limit.
    """
    tau = draw(st.one_of(st.integers(1, 0xFFFF),
                         st.integers(0, 15).map(lambda b: 1 << b)))
    rho = draw(st.integers(1, tau))
    ks = draw(st.lists(st.integers(-(2**30), 2**30), min_size=1, max_size=12))
    ties = [(k + 0.5) * rho / tau for k in ks]
    k_max = ((1 << 62) - 1) // rho
    big = [sign * (int(f * k_max) * rho / tau) for sign, f in draw(st.lists(
        st.tuples(st.sampled_from((-1, 1)), st.floats(0.5, 0.999)), max_size=6))]
    plain = draw(st.lists(st.floats(-(2.0**31), 2.0**31, allow_nan=False), max_size=12))
    preds = ties + big + plain
    xs = draw(st.lists(st.integers(SYMBOL_MIN, SYMBOL_MAX),
                       min_size=len(preds), max_size=len(preds)))
    return rho, tau, ks, preds, xs


NUMERATOR_LIMIT = (1 << 62) - 1  # the largest |numerator| _round_predictions gives
VALUE_TOP = (bitcoder.MAX_RUN + 1) * bitcoder.M_MAX - 1  # the largest value a decoder gives


@given(case=twin_case(), extra=st.lists(st.integers(0, 2**36), max_size=8),
       edges=st.lists(st.tuples(st.integers(0, VALUE_TOP),
                                st.sampled_from((NUMERATOR_LIMIT, -NUMERATOR_LIMIT))),
                      max_size=6))
@settings(max_examples=300)
def test_vector_twins_match_scalar_elementwise(case, extra, edges):
    # lpc streams round with _round_predictions on encode and with
    # qmap.round_prediction on decode; each vector twin must agree with
    # its scalar reference on every element, not only in round trips
    rho, tau, ks, preds, xs = case
    p = Precision(rho, tau)
    ns, peak = codec._round_predictions(np.array(preds), rho, tau)
    assert ns.tolist() == [round_prediction(x, p) for x in preds]
    assert peak == max(abs(n) for n in ns.tolist())
    if tau & (tau - 1) == 0:  # exact ties round toward +inf
        assert ns[:len(ks)].tolist() == [(k + 1) * rho for k in ks]
    mapped, magnitudes = codec._map_vector(np.array(xs, dtype=np.int64), ns, tau, peak)
    assert mapped.tolist() == [qmap.map_residual(qmap.residual(x, n, tau), tau)
                               for x, n in zip(xs, ns.tolist())]
    assert magnitudes.tolist() == [abs(qmap.residual(x, n, tau))
                                   for x, n in zip(xs, ns.tolist())]
    # codeword values beyond the mapped ones, as golomb_decode can return
    values = mapped.tolist() + extra
    pred_n = ns.tolist() + ns.tolist()[:len(extra)]
    values = values[:len(pred_n)]
    got = codec._unmap_vector(np.array(values, dtype=np.int64),
                              np.array(pred_n, dtype=np.int64), tau)
    assert got.tolist() == [qmap.unmap(v, n, tau) for v, n in zip(values, pred_n)]
    assert got.tolist()[:len(xs)] == xs
    # any decodable value against numerators at the limit: v + ceil(2n/tau)
    # passes 2**63 there, which the unmap must never form
    values = [v for v, _ in edges] + [VALUE_TOP, VALUE_TOP]
    pred_n = [n for _, n in edges] + [NUMERATOR_LIMIT, -NUMERATOR_LIMIT]
    got = codec._unmap_vector(np.array(values, dtype=np.int64),
                              np.array(pred_n, dtype=np.int64), tau)
    assert got.tolist() == [qmap.unmap(v, n, tau) for v, n in zip(values, pred_n)]
    # past the residual range both twins raise the same ValueError, also
    # where the scalar's tau * xhat overflows to inf
    for xhat in (1e308, -1e308):
        with pytest.raises(ValueError, match="overflows the residual range"):
            round_prediction(xhat, Precision(1, 16))
        with pytest.raises(ValueError, match="overflows the residual range"):
            codec._round_predictions(np.array([xhat]), 1, 16)


def test_unary_bomb_raises():
    h = StreamHeader(mode=MODE_FIXED, rho=1, tau=1, m=1)
    data = encode_stream([0, 0, 0, 0], h, predictions=[0.0] * 4)
    bomb = with_payload(data, b"\xff" * (2 * bitcoder.MAX_RUN // 8 + 16))
    with pytest.raises(CorruptStreamError, match="unary run"):
        decode_stream(bomb, predictions=[0.0] * 4)


def test_adaptive_truncation_raises():
    rng = np.random.default_rng(4)
    xs = rng.integers(0, 1000, size=200).tolist()
    h = StreamHeader(mode=MODE_ADAPTIVE, rho=1, tau=16)
    data = encode_stream(xs, h, predictions=[0.0] * 200)
    with pytest.raises(CorruptStreamError):
        decode_stream(with_payload(data, payload_of(data)[:10]), predictions=[0.0] * 200)


# --- streams: rate spot checks -------------------------------------------------

def test_adaptive_rate_near_model():
    xs, preds = harness.gen_synthetic(0.3, 100_000, seed=1234, stream=0)
    h = StreamHeader(mode=MODE_ADAPTIVE, rho=1, tau=16)
    data = encode_stream(xs, h, predictions=preds)
    bits = 8 * len(payload_of(data)) / len(xs)
    want = analysis.avg_code_length(1, 0.3, Precision(1, 16))
    assert abs(bits - want) / want < 0.02


def test_fixed_rate_matches_average_length():
    xs, preds = harness.gen_synthetic(0.5, 100_000, seed=1234, stream=0)
    h = StreamHeader(mode=MODE_FIXED, rho=1, tau=256, m=2)
    data = encode_stream(xs, h, predictions=preds)
    bits = 8 * len(payload_of(data)) / len(xs)
    assert bits == pytest.approx(3.0, abs=0.02)


# --- streams: built-in predictor ----------------------------------------------

def _wavey(n, seed):
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    base = 40.0 * np.sin(t / 9.0) + 0.3 * t
    return (base + rng.normal(0, 2.0, size=n)).round().astype(np.int64).tolist()


@pytest.mark.parametrize(
    "mode,kwargs",
    [
        (MODE_FIXED, dict(m=4)),
        (MODE_ADAPTIVE, dict()),
        (MODE_ADAPTIVE, dict(raw_error_estimator=True)),
        (MODE_RICE, dict(m=1)),
    ],
)
def test_lpc_stream_roundtrip(mode, kwargs):
    xs = _wavey(600, seed=8)
    rho, tau = (1, 1) if mode == MODE_RICE else (1, 16)
    h = StreamHeader(mode=mode, rho=rho, tau=tau, lpc=LpcConfig(2, 16, 16), **kwargs)
    data = encode_stream(xs, h)
    assert decode_stream(data) == xs
    back, _ = read_container(data)
    assert back.lpc == LpcConfig(2, 16, 16)


def test_lpc_trace_lockstep():
    xs = _wavey(400, seed=13)
    for raw in (False, True):
        h = StreamHeader(mode=MODE_ADAPTIVE, rho=1, tau=16, lpc=LpcConfig(3, 24, 12),
                         raw_error_estimator=raw)
        data, enc_trace = encode_stream(xs, h, collect_trace=True)
        out, dec_trace = decode_stream(data, collect_trace=True)
        assert out == xs
        assert enc_trace == dec_trace
        assert len(enc_trace) == len(xs)
        assert all(type(entry[2]) is (float if raw else int) for entry in dec_trace)


def test_traced_lpc_decode_runs_the_predictor_once(monkeypatch):
    # the trace reuses the decoder's own predictions
    xs = _wavey(400, seed=13)
    fits = []
    fit = predictor.fit
    monkeypatch.setattr(predictor, "fit", lambda *args: fits.append(1) or fit(*args))
    for raw in (False, True):
        h = StreamHeader(mode=MODE_ADAPTIVE, rho=1, tau=16, lpc=LpcConfig(3, 24, 12),
                         raw_error_estimator=raw)
        data, enc_trace = encode_stream(xs, h, collect_trace=True)
        fits.clear()
        assert decode_stream(data) == xs
        untraced = len(fits)
        fits.clear()
        assert decode_stream(data, collect_trace=True) == (xs, enc_trace)
        assert len(fits) == untraced > 0


def test_lpc_beats_no_prediction_on_trend():
    xs = _wavey(4000, seed=21)
    with_lpc = encode_stream(
        xs, StreamHeader(mode=MODE_ADAPTIVE, rho=1, tau=16, lpc=LpcConfig(2, 16, 16))
    )
    without = encode_stream(
        xs, StreamHeader(mode=MODE_ADAPTIVE, rho=1, tau=16),
        predictions=[0.0] * len(xs),
    )
    assert len(with_lpc) < len(without)


def test_lpc_rejects_external_predictions():
    h = StreamHeader(mode=MODE_FIXED, rho=1, tau=4, m=2, lpc=LpcConfig(2, 8, 8))
    with pytest.raises(ValueError):
        encode_stream([1, 2, 3], h, predictions=[0.0] * 3)
    data = encode_stream(list(range(30)), h)
    with pytest.raises(ValueError):
        decode_stream(data, predictions=[0.0] * 30)


# --- input validation ------------------------------------------------------------

def test_encode_rejects_alphabet_violation():
    h = StreamHeader(mode=MODE_FIXED, rho=1, tau=1, m=1, alphabet_q=4)
    with pytest.raises(ValueError):
        encode_stream([5], h, predictions=[0.0])
    encode_stream([3], h, predictions=[0.0])  # boundary value is fine


def test_encode_rejects_bad_shapes():
    h = StreamHeader(mode=MODE_FIXED, rho=1, tau=1, m=1)
    with pytest.raises(ValueError):
        encode_stream(np.zeros((2, 2), dtype=np.int64), h)
    with pytest.raises(ValueError):
        encode_stream([1, 2], h, predictions=[0.0])
    with pytest.raises(ValueError):
        encode_stream([1], h, predictions=[float("nan")])
    # only integer and bool symbols: a cast would change any other kind
    for xs, dtype in (([1.5, 2.7], "float64"), (np.array([1.9, -0.5]), "float64"),
                      (["3", "4"], "<U1"), (np.array([2.0], np.float32), "float32")):
        with pytest.raises(ValueError, match=f"dtype {dtype}"):
            encode_stream(xs, h, predictions=[0.0] * len(xs))
    # a uint64 past int64 is out of range, not wrapped to a small negative
    with pytest.raises(ValueError):
        encode_stream(np.array([2**64 - 5], np.uint64), h, predictions=[0.0])
    # Python ints past int64 make an object or float64 array, but they are
    # integers: out of range, not of the wrong kind
    for xs in ([1 << 70], [1, 1 << 63, -1], [-(1 << 64), 0], np.array([1 << 65], object)):
        with pytest.raises(ValueError, match="symbols outside"):
            encode_stream(xs, h, predictions=[0.0] * len(xs))
    # and integers of mixed kinds in range, such as a uint64 beside a negative
    # int, which asarray makes float64, are coded as they are
    data = encode_stream([np.uint64(5), -1, 7], h, predictions=[0.0] * 3)
    assert decode_stream(data, predictions=[0.0] * 3) == [5, -1, 7]
    for xs in ([], np.array([True, False]), np.array([3, 4], np.uint8)):
        data = encode_stream(xs, h, predictions=[0.0] * len(xs))
        assert decode_stream(data, predictions=[0.0] * len(xs)) == [int(x) for x in xs]


def test_predictions_must_be_real_numbers():
    # a float64 cast would parse the string and fail on the complex number
    # with a TypeError; both ends refuse every kind but bool, int and float
    h = StreamHeader(mode=MODE_FIXED, rho=1, tau=1, m=2)
    data = encode_stream([1, 2], h, predictions=[0.5, 1.0])
    for pred, dtype in ((["0.5", True], "<U"), ([0.5, 1j], "complex128"),
                        (np.array([0.5, 1.0], object), "object")):
        with pytest.raises(ValueError, match=f"dtype {dtype}"):
            encode_stream([1, 2], h, predictions=pred)
        with pytest.raises(ValueError, match=f"dtype {dtype}"):
            decode_stream(data, predictions=pred)
    for pred in ([True, 1], np.array([0.5, 1.0], np.float32), np.array([0, 1], np.uint8)):
        assert decode_stream(encode_stream([1, 2], h, predictions=pred),
                             predictions=pred) == [1, 2]


def test_encode_rejects_out_of_range_symbols():
    h = StreamHeader(mode=MODE_FIXED, rho=1, tau=1, m=1)
    with pytest.raises((ValueError, OverflowError)):
        encode_stream([2**31], h, predictions=[0.0])


def test_decode_rejects_garbage_header():
    with pytest.raises(HeaderError):
        decode_stream(b"nope" + b"\x00" * 40)
