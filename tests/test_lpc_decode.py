"""The windowed LPC decoder against the loop over symbols it replaced.

``oracle_decode_lpc`` is codec._decode_lpc as it was before it parsed
windows of codewords: one read per symbol, here by the bit-at-a-time
bitsink.BitSource, which shares no code with the codec's readers, and a
per-symbol predictor, lpcloop.LoopState.  decode_stream must give the
same symbols, trace and rounding input for every symbol with either, or
raise the same exception type and message at the same symbol (the
number of symbols the decoder's predictor state holds when it raises).
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from frgc import _estcore, _pure, codec, qmap
from frgc.bitcoder import (
    MAX_RUN,
    TAU_MAX,
    CorruptStreamError,
    GolombParam,
    symbol_out_of_range,
)
from frgc.codec import (
    HEADER_SIZE,
    MODE_ADAPTIVE,
    MODE_FIXED,
    StreamHeader,
    decode_stream,
    encode_stream,
)
from frgc.predictor import LpcConfig, LpcState

from bitsink import BitSource
from lpcloop import LoopState
from mtable import table_m


def oracle_decode_lpc(payload: bytes, header: StreamHeader) -> list:
    """Lpc-mode decode, symbol by symbol: the symbols."""
    cfg = header.lpc
    prec = header.precision
    tau = header.tau
    adaptive = header.mode == MODE_ADAPTIVE
    raw = header.raw_error_estimator
    lo, hi = codec._symbol_range(header.alphabet_q)
    src = BitSource(payload)
    out: list[int] = []
    state = LoopState(cfg)
    s_int = 0
    s_raw = 0.0
    for t in range(header.count):
        xhat = state.predict()
        n = qmap.round_prediction(xhat, prec)
        if not adaptive:
            m = header.m
        elif raw:
            m = table_m(t, s_raw)
        else:
            m = table_m(t, s_int, tau)
        g = GolombParam(m)
        x = qmap.unmap(src.read_unary() * m + src.read_minimal_binary(g), n, tau)
        if not lo <= x <= hi:
            raise symbol_out_of_range(t, x, lo, hi)
        state.push(x)
        out.append(x)
        if not adaptive:
            continue
        if raw:
            s_raw += abs(x - xhat)
        else:
            s_int += abs(tau * x - n)
            if s_int > _estcore.EST_SATURATION:
                s_int = _estcore.EST_SATURATION
    return out


def decoded(data: bytes, decoder) -> tuple:
    """decode_stream with decoder as its lpc loop: ("ok", symbols, trace,
    rounded), or ("raised", type, message, symbols decoded before the
    error).

    rounded is every argument math.floor was given, tau*xhat/rho + 0.5 for
    each symbol's prediction xhat: the codec rounds inline with the
    math.floor it looks up at each call, the oracle through
    qmap.round_prediction, so the two agree bit for bit only where their
    predictions do.  The symbols decoded are read off the history of the
    LpcState the decoder made (the codec's, or the oracle's LoopState); 0
    where it raised before making one."""
    states, rounded = [], []
    real_init, real_decoder, real_floor = LpcState.__init__, codec._decode_lpc, math.floor

    def recorded(self, cfg):
        real_init(self, cfg)
        states.append(self)

    def floor(v):
        rounded.append(v)
        return real_floor(v)

    LpcState.__init__, codec._decode_lpc, math.floor = recorded, decoder, floor
    try:
        out, trace = decode_stream(data, collect_trace=True)
        return "ok", out, trace, rounded
    except Exception as exc:  # noqa: BLE001 - the type and message are compared
        reached = sum(len(st.history) - st._pad for st in states)
        return "raised", type(exc), str(exc), reached
    finally:
        LpcState.__init__, codec._decode_lpc, math.floor = real_init, real_decoder, real_floor


def agree(data: bytes) -> tuple:
    """The windowed decoder's outcome, which must be the oracle's."""
    got = decoded(data, codec._decode_lpc)
    assert got == decoded(data, oracle_decode_lpc)
    return got


@pytest.fixture(params=["settled", "eager"])
def settle(request, monkeypatch):
    """Windows from _pure.SETTLE_SYMBOLS held symbols on, or from one, with
    windows of two symbols or more: most of them then end at an m switch."""
    if request.param == "eager":
        monkeypatch.setattr(_pure, "SETTLE_SYMBOLS", 1)
        monkeypatch.setattr(_pure, "AHEAD_SYMBOLS", 2)
    return request.param


def ar2(seed: int, n: int, scale) -> list[int]:
    """Integer AR(2) (1.6, -0.7) with Laplace innovations of the given
    scale (one, or one per symbol), 16-bit."""
    e = np.random.default_rng(seed).laplace(0.0, scale, n)
    y, prev1, prev2 = [], 0.0, 0.0
    for t in range(n):
        cur = 1.6 * prev1 - 0.7 * prev2 + e[t]
        y.append(cur)
        prev2, prev1 = prev1, cur
    return np.clip(np.rint(y), -(1 << 15), (1 << 15) - 1).astype(np.int64).tolist()


def header_for(mode: str, cfg=(2, 16, 16), tau=8, m=64, **kwargs) -> StreamHeader:
    """An lpc header at precision 1/tau; m applies in fixed mode only."""
    return StreamHeader(mode=mode, rho=1, tau=tau, m=m if mode == MODE_FIXED else 0,
                        lpc=LpcConfig(*cfg), **kwargs)


HEADERS = {
    "fixed": header_for(MODE_FIXED),
    "adaptive-int": header_for(MODE_ADAPTIVE),
    "adaptive-raw": header_for(MODE_ADAPTIVE, raw_error_estimator=True),
}
# The same modes where the rounding divides by rho (3/16, and 7/7, whose
# grid is the integers) and where numerators reach TAU_MAX * 2**15.
ORACLE_HEADERS = HEADERS | {
    f"{name}-{rho}/{tau}": replace(header, rho=rho, tau=tau)
    for rho, tau in ((3, 16), (7, 7), (1, TAU_MAX))
    for name, header in HEADERS.items()
}


def held_switches(trace, start=0):
    """Symbols from start on coded under another m than the one before,
    which had held for at least _pure.SETTLE_SYMBOLS symbols."""
    ms = [m for m, _, _ in trace]
    found, run = [], 0
    for t in range(1, len(ms)):
        if ms[t] == ms[t - 1]:
            run += 1
            continue
        if t >= start and run >= _pure.SETTLE_SYMBOLS:
            found.append(t)
        run = 0
    return found


@pytest.mark.parametrize("name", sorted(ORACLE_HEADERS))
@pytest.mark.parametrize("cfg", [(2, 16, 16), (4, 64, 32), (2, 8, 1),
                                 (1, 4, 1), (3, 8, 1), (2, 1, 1)])
def test_decodes_as_the_loop_over_symbols(name, cfg, settle):
    xs = ar2(len(name) + cfg[1], 1500, 60.0)
    data = encode_stream(xs, replace(ORACLE_HEADERS[name], lpc=LpcConfig(*cfg)))
    assert agree(data)[:2] == ("ok", xs)


@pytest.mark.parametrize("raw", [False, True])
@pytest.mark.parametrize("scales", [(0.5, 6.0, 1.0, 20.0), (2.0, 30.0, 3.0, 60.0)])
def test_m_switches_inside_windows(raw, scales, settle):
    # the innovation scale changes each quarter, so m moves long after the
    # cold start, often after holding for a window's worth of symbols: a
    # window parsed under it then runs past the symbol after which it changes
    xs = ar2(int(scales[1]) + raw, 4000, np.repeat(scales, 1000))
    header = header_for(MODE_ADAPTIVE, raw_error_estimator=raw)
    data, trace = encode_stream(xs, header, collect_trace=True)
    assert len(held_switches(trace)) >= 10
    assert agree(data)[:2] == ("ok", xs)


def test_payload_of_several_windows():
    xs = ar2(3, 6000, 200.0)
    for header in HEADERS.values():
        data = encode_stream(xs, header)
        assert 8 * (len(data) - HEADER_SIZE) > 2 * _pure.WINDOW_BITS
        assert agree(data)[:2] == ("ok", xs)


@pytest.mark.parametrize("mode", [MODE_FIXED, MODE_ADAPTIVE])
def test_codewords_longer_than_a_window(mode):
    # zeros but for one spike, whose codeword at m = 1 is a unary run of
    # almost MAX_RUN bits, as is the next one's in fixed mode (predicted
    # from the spike)
    spike = MAX_RUN // 2 - 8
    xs = [0] * 600
    xs[300] = spike
    header = header_for(mode, cfg=(1, 4, 1), tau=1, m=1)
    data = encode_stream(xs, header)
    assert 8 * len(data) > (1.9 if mode == MODE_FIXED else 0.9) * MAX_RUN
    assert agree(data)[:2] == ("ok", xs)


@pytest.mark.parametrize("length", [_pure.WINDOW_BITS + 1, 4 * _pure.WINDOW_BITS,
                                    MAX_RUN - 15])
def test_a_codeword_longer_than_a_window_inside_a_held_run(length, settle):
    # zeros, coded at m = 1 from the first symbol on, but for one spike
    # whose codeword of `length` bits (a mapped value of length - 1) is
    # the first of a window parsed under that held m
    xs = [0] * 600
    xs[300] = length // 2 if length % 2 else -(length // 2)
    data, trace = encode_stream(xs, header_for(MODE_ADAPTIVE, cfg=(1, 4, 1), tau=1),
                                collect_trace=True)
    assert {m for m, _, _ in trace[:301]} == {1}
    assert 8 * (len(data) - HEADER_SIZE) > length
    assert agree(data)[:2] == ("ok", xs)


SHORT = ar2(9, 160, 20.0)


@pytest.mark.parametrize("name", sorted(ORACLE_HEADERS))
def test_every_truncation_of_a_short_stream(name, settle):
    data = encode_stream(SHORT, replace(ORACLE_HEADERS[name], lpc=LpcConfig(2, 8, 1)))
    for cut in range(len(data)):
        assert agree(data[:cut])[0] == "raised"
    assert agree(data)[:2] == ("ok", SHORT)


def counted_decode_symbol(monkeypatch) -> list:
    """The arguments of every codec.decode_symbol call from now on."""
    calls = []
    real = codec.decode_symbol
    monkeypatch.setattr(codec, "decode_symbol", lambda *a: calls.append(a) or real(*a))
    return calls


def test_fixed_mode_reads_no_codeword_one_at_a_time(monkeypatch):
    # windows cover every symbol whose m is known, and raise their own
    # errors: a fixed-mode decode, whole or cut short, never falls back
    # to the per-symbol reader, which only the adaptive cold start uses
    calls = counted_decode_symbol(monkeypatch)
    data = encode_stream(SHORT, replace(HEADERS["fixed"], lpc=LpcConfig(2, 8, 1)))
    assert decode_stream(data) == SHORT
    with pytest.raises(CorruptStreamError, match="unexpected end of stream"):
        decode_stream(data[:-3])
    assert not calls


def unsettled_ms(trace) -> list:
    """The m of each symbol coded before its m had held for
    _pure.SETTLE_SYMBOLS symbols: symbol 0 at the cold start's m = 1, and
    the symbols after each m switch until the new m has held that long."""
    ms = [m for m, _, _ in trace]
    found, held = [], 0
    for t, m in enumerate(ms):
        held = held + 1 if t and m == ms[t - 1] else 0
        if held < _pure.SETTLE_SYMBOLS:
            found.append(m)
    return found


@pytest.mark.parametrize("name", ["adaptive-int", "adaptive-raw"])
def test_adaptive_mode_reads_one_codeword_at_a_time_until_m_settles(name, settle,
                                                                    monkeypatch):
    # decode_symbol reads exactly the codewords of the symbols whose m has
    # not held for SETTLE_SYMBOLS symbols, each under its own m: 65 reads
    # by default where m leaves 1 after symbol 0 and never moves again
    calls = counted_decode_symbol(monkeypatch)
    header = HEADERS[name]
    once = ar2(5, 600, 200.0)
    once[0] = 20000
    data, trace = encode_stream(once, header, collect_trace=True)
    ms = [m for m, _, _ in trace]
    assert ms[0] == 1 and set(ms[1:]) == {64}
    assert decode_stream(data) == once
    assert len(calls) == _pure.SETTLE_SYMBOLS + 1 == (65 if settle == "settled" else 2)
    read_ms = [g.m for g, _, _ in calls]
    assert read_ms == unsettled_ms(trace) == [1] + [64] * _pure.SETTLE_SYMBOLS
    # and where m moves all through the stream
    xs = ar2(7, 2000, np.repeat((0.5, 6.0, 1.0, 20.0), 500))
    data, trace = encode_stream(xs, header, collect_trace=True)
    assert len(held_switches(trace)) >= 3
    calls.clear()
    assert decode_stream(data) == xs
    assert [g.m for g, _, _ in calls] == unsettled_ms(trace)


@pytest.mark.parametrize("name", sorted(ORACLE_HEADERS))
def test_single_bit_flips(name, settle):
    data = encode_stream(SHORT, replace(ORACLE_HEADERS[name], lpc=LpcConfig(2, 8, 1)))
    nbits = 8 * (len(data) - HEADER_SIZE)
    rng = np.random.default_rng(len(name))
    outcomes = set()
    for pos in rng.choice(nbits, size=120, replace=False):
        flipped = bytearray(data)
        flipped[HEADER_SIZE + pos // 8] ^= 0x80 >> (pos % 8)
        outcomes.add(agree(bytes(flipped))[0])
    assert outcomes == {"ok", "raised"}


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_out_of_range_symbol_at_an_m_switch(offset, settle):
    # symbols in [0, 10] but one, just before, at or just after the first
    # m switch after m has settled; a window parsed under the old m decodes
    # the symbols past the switch wrongly, and must not raise for them
    rng = np.random.default_rng(4)
    n = 900
    xs = np.concatenate((rng.integers(4, 7, 400), rng.integers(0, 11, n - 400))).tolist()
    header = header_for(MODE_ADAPTIVE, cfg=(2, 16, 4), alphabet_q=51)
    _, trace = encode_stream(xs, header, collect_trace=True)
    switch = held_switches(trace, 400)[0]
    bad = switch + offset
    xs[bad] = 50
    data, trace = encode_stream(xs, header, collect_trace=True)
    assert held_switches(trace, 400)[0] == switch
    assert agree(data)[:2] == ("ok", xs)
    narrow = replace(header, alphabet_q=11, count=n).pack() + data[HEADER_SIZE:]
    message = f"symbol {bad} decodes to 50, outside [0, 10]"
    assert agree(narrow)[:4] == ("raised", CorruptStreamError, message, bad)
