"""LPC streams: frozen bytes, version, and corrupt-stream behaviour."""

import json

import numpy as np
import pytest

from frgc import codec, predictor
from frgc.bitcoder import CorruptStreamError, GolombParam
from frgc.codec import (
    MODE_ADAPTIVE,
    MODE_FIXED,
    HeaderError,
    StreamHeader,
    decode_stream,
    encode_stream,
)
from frgc.predictor import LpcConfig
from frgc.qmap import SYMBOL_MAX, SYMBOL_MIN

from bitsink import BitSink
from container import flip_bits, payload_span, reseal
from golden import LPC_GOLDEN, MODES, ar2_signal, lpc_streams, normalised_digest
from lpcloop import loop_predictions


def wide_signal(seed: int, n: int) -> list[int]:
    """A 32-bit signal: a slow sinusoid clipped at both ends of the range,
    plus noise, under an envelope that grows over the first 1,800 symbols
    so that the cold start's codewords stay short."""
    t = np.arange(n)
    envelope = np.minimum(1.0, 2.0 ** ((t - 1800) / 150))
    noise = np.random.default_rng(seed).integers(-(1 << 18), 1 << 18, n)
    y = envelope * (1.01 * 2.0 ** 31 * np.sin(2 * np.pi * t / 2500) + noise)
    return np.rint(y).clip(-(1 << 31), (1 << 31) - 1).astype(np.int64).tolist()


WIDE_CONFIGS = ((1, 2, 1), (2, 16, 16), (4, 64, 32), (3, 200, 1))


def wide_streams(mode: str):
    """[(symbols, header)] of 32-bit signals past the int64 sum rule."""
    streams = []
    for k, cfg in enumerate(WIDE_CONFIGS):
        xs = wide_signal(k, 5000)
        assert not predictor.sums_fit_int64(np.array(xs), cfg[1])
        streams.append((xs, StreamHeader(rho=1, tau=8, lpc=LpcConfig(*cfg),
                                         **MODES[mode])))
    return streams


def golden_of(mode: str):
    """[(symbols, header)] of the golden pool's streams in one mode."""
    return [v for k, v in lpc_streams().items() if k.startswith(mode + " ")]


def test_lpc_streams_match_golden_bytes():
    want = json.loads(LPC_GOLDEN.read_text())
    pool = lpc_streams()
    assert sorted(want) == sorted(pool)
    for name, (xs, header) in pool.items():
        data = encode_stream(xs, header)
        assert normalised_digest(data) == want[name], name
        assert decode_stream(data) == xs, name


@pytest.mark.parametrize("mode", MODES)
def test_batch_encoder_writes_the_loops_bytes(mode, monkeypatch):
    # the golden pool, 24-bit signals at refit intervals from every
    # symbol to never, and 32-bit signals past the int64 sum rule
    streams = golden_of(mode) + wide_streams(mode)
    rng = np.random.default_rng(8)
    for cfg in ((3, 200, 1), (6, 1000, 4096), (1, 1, 1), (16, 40, 7)):
        xs = np.cumsum(rng.integers(-20000, 20001, 5000)).clip(-(1 << 23), 1 << 23)
        streams.append((xs.tolist(), StreamHeader(rho=1, tau=8, lpc=LpcConfig(*cfg),
                                                  **MODES[mode])))
    batch = [encode_stream(xs, header) for xs, header in streams]
    monkeypatch.setattr(codec, "_lpc_predictions", loop_predictions)
    assert batch == [encode_stream(xs, header) for xs, header in streams]


@pytest.mark.parametrize("mode", MODES)
def test_traced_decode_gives_the_encoders_trace(mode, monkeypatch):
    # the decoder predicts in its loop, with no batch prediction; tracing
    # the decoded symbols predicts them again, once, and gives the
    # encoder's trace, which is None in fixed mode
    calls = []
    real = codec._lpc_predictions
    monkeypatch.setattr(codec, "_lpc_predictions",
                        lambda xs, cfg: calls.append(cfg) or real(xs, cfg))
    for xs, header in golden_of(mode) + wide_streams(mode):
        data, trace = encode_stream(xs, header, collect_trace=True)
        assert (trace is None) == (mode == "fixed")
        calls.clear()
        out = decode_stream(data)
        assert out == xs
        assert calls == []
        assert encode_stream(out, header, collect_trace=True)[1] == trace
        assert calls == [header.lpc]


def test_v2_lpc_stream_rejected():
    xs, header = lpc_streams()["adaptive-int (2, 32, 1)"]
    data = bytearray(encode_stream(xs, header))
    assert data[4] == codec.VERSION == 4
    data[4] = 2
    with pytest.raises(HeaderError, match="version"):
        decode_stream(bytes(data))


def flipped(data: bytes, rng: np.random.Generator) -> bytes:
    """data with 1-4 random payload bits inverted, resealed so that the
    decoder's own checks see them."""
    start, end = payload_span(data)
    bits = 8 * start + rng.choice(8 * (end - start), size=int(rng.integers(1, 5)),
                                  replace=False)
    return reseal(flip_bits(data, bits))


@pytest.mark.parametrize("header", [
    StreamHeader(mode=MODE_ADAPTIVE, rho=1, tau=8, lpc=LpcConfig(2, 16, 16)),
    StreamHeader(mode=MODE_FIXED, rho=1, tau=8, m=16, lpc=LpcConfig(2, 8, 1)),
], ids=["adaptive", "fixed"])
def test_bit_flipped_lpc_streams_fail_cleanly_or_stay_in_range(header):
    # A corrupt stream may decode to other symbols, but only to symbols
    # encode_stream could have written, and exactly count of them.
    rng = np.random.default_rng(5)
    xs = ar2_signal(6, 400)
    data = encode_stream(xs, header)
    in_range = 0
    for _ in range(150):
        try:
            out = decode_stream(flipped(data, rng))
        except (HeaderError, CorruptStreamError):
            continue
        assert len(out) == len(xs)
        assert all(SYMBOL_MIN <= x <= SYMBOL_MAX for x in out)
        in_range += 1
    assert in_range > 0  # some flips leave a decodable stream


def crafted(header: StreamHeader, values: list[int], m: int) -> bytes:
    """A stream of header holding the given mapped values coded at m."""
    sink = BitSink()
    g = GolombParam(m)
    for v in values:
        sink.write_unary(v // m)
        sink.write_minimal_binary(v % m, g)
    return codec.write_container(header, sink.finish(), len(values))


@pytest.mark.parametrize("lpc", [None, LpcConfig(1, 1, 1)], ids=["external", "lpc"])
def test_decode_names_the_first_symbol_outside_32_bits(lpc):
    # 2**34 folds to a symbol near 2**33, which encode_stream refuses
    header = StreamHeader(mode=MODE_FIXED, rho=1, tau=1, m=65535, lpc=lpc)
    data = crafted(header, [0, 3, 1 << 34, 0, 1 << 34], 65535)
    predictions = None if lpc else [0.0] * 5
    with pytest.raises(CorruptStreamError, match="symbol 2 "):
        decode_stream(data, predictions=predictions)


@pytest.mark.parametrize("lpc", [None, LpcConfig(1, 1, 1)], ids=["external", "lpc"])
@pytest.mark.parametrize("mode", [MODE_FIXED, MODE_ADAPTIVE])
def test_decode_names_the_first_symbol_outside_the_alphabet(mode, lpc):
    m = 1 if mode == MODE_FIXED else 0
    header = StreamHeader(mode=mode, rho=1, tau=1, m=m, alphabet_q=4, lpc=lpc)
    # Adaptive mode codes both symbols at m = 1 too (cold start, then
    # theta = e**-1).  The second symbol decodes to 5 (external) or 6 (lpc,
    # predicted from the first symbol, 1).
    data = crafted(header, [2, 10], 1)
    predictions = None if lpc else [0.0] * 2
    with pytest.raises(CorruptStreamError, match="symbol 1 "):
        decode_stream(data, predictions=predictions)
