"""The whole-array pure coder against the per-symbol loops it replaced.

``oracle_*`` below are the per-symbol loops frgc._pure ran before it
coded whole arrays: one codeword at a time through bitsink.BitSink and
bitsink.BitSource, on Python ints.  The numpy coder must agree with them bit for
bit, in its results and in the type of every error, and so must the
compiled kernels where they build.  The adaptive decoder, which parses
ahead under an m it has not confirmed yet, must also give the oracle's
error messages, which name the symbol that failed.
"""

import math
import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frgc import _estcore, _pure, bitcoder, codec, qmap
from frgc.bitcoder import (
    M_MAX,
    MAX_RUN,
    TAU_MAX,
    CorruptStreamError,
    GolombParam,
    symbol_out_of_range,
)
from frgc._estcore import LOG_BOUNDARIES, select_m, select_m_array
from frgc.predictor import LpcConfig

import scalarfold
from bitsink import BitSink, BitSource, code_length
from container import payload_of, with_payload
from mtable import m_of_quotient, table_m, tied_sum, ulps_around

BLOCK = _pure.BLOCK_SYMBOLS
SMALL_BLOCK = 1 << 11  # a shorter split, which the encoders must make exactly as well
WINDOW = _pure.WINDOW_BITS
SAT = _estcore.EST_SATURATION
MAX_M = _estcore.MAX_ADAPTIVE_M
LIMIT = 1 << 62  # the contract's bound on |pred_n|
FIXED_MS = (1, 2, 3, 13, 64, M_MAX)


def oracle_write(ms, params):
    """Codewords of ms, the i-th under params[i], one at a time."""
    sink = BitSink()
    for value, g in zip(ms, params):
        j, k = divmod(value, g.m)
        if j > MAX_RUN:
            raise ValueError(f"quotient {j} exceeds the {MAX_RUN}-bit unary limit")
        sink.write_unary(j)
        sink.write_minimal_binary(k, g)
    return sink.finish(), sink.bit_length


def oracle_golomb_encode(ms, m):
    g = GolombParam(m)
    return oracle_write(ms.tolist(), [g] * len(ms))


def oracle_golomb_decode(payload, count, m):
    g = GolombParam(m)
    src = BitSource(payload)
    return ints([src.read_unary() * m + src.read_minimal_binary(g)
                 for _ in range(count)]).tobytes()


def oracle_sums(increments, raw):
    """The estimator sum after each symbol, one addition at a time."""
    sums = []
    s = 0.0 if raw else 0
    for inc in increments.tolist():
        s = s + inc if raw else min(s + inc, _estcore.EST_SATURATION)
        sums.append(s)
    return sums


def oracle_adaptive_encode(ms, increments, raw, tau):
    if raw and not all(map(math.isfinite, increments.tolist())):
        raise ValueError("raw increments must be finite")
    sums = oracle_sums(increments, raw)
    before = [0.0 if raw else 0] + sums[:-1]
    params = [GolombParam(table_m(t, s) if raw else table_m(t, s, tau))
              for t, s in enumerate(before)]
    return oracle_write(ms.tolist(), params)


def oracle_adaptive_decode(payload, count, pred_n, pred_x, tau, raw, lo, hi):
    """The loop over symbols frgc._pure ran before it parsed ahead, after
    refusing any numerator, or raw prediction, the contract excludes, as
    both backends do."""
    if not 1 <= tau <= TAU_MAX:
        raise ValueError(f"tau must be in [1, {TAU_MAX}], got {tau}")
    if any(not -LIMIT < int(n) < LIMIT for n in pred_n[:count]):
        raise ValueError("prediction numerator out of range")
    if raw and not all(map(math.isfinite, pred_x[:count].tolist())):
        raise ValueError("predictions must be finite")
    src = BitSource(payload)
    out = []
    s = 0.0 if raw else 0
    for t in range(count):
        m = table_m(t, s) if raw else table_m(t, s, tau)
        value = src.read_unary() * m + src.read_minimal_binary(GolombParam(m))
        n = int(pred_n[t])
        x = scalarfold.unmap(value, n, tau)
        if not lo <= x <= hi:
            raise symbol_out_of_range(t, x, lo, hi)
        out.append(x)
        if raw:
            s += abs(x - float(pred_x[t]))
        else:
            s = min(s + abs(tau * x - n), _estcore.EST_SATURATION)
    return ints(out).tobytes()


ORACLE = SimpleNamespace(golomb_encode=oracle_golomb_encode,
                         golomb_decode=oracle_golomb_decode,
                         adaptive_encode=oracle_adaptive_encode,
                         adaptive_decode=oracle_adaptive_decode)


def eager_adaptive_decode(*args):
    """_pure.adaptive_decode parsing ahead once m has held for one symbol."""
    saved = _pure.SETTLE_SYMBOLS, _pure.AHEAD_SYMBOLS
    _pure.SETTLE_SYMBOLS, _pure.AHEAD_SYMBOLS = 1, 2
    try:
        return _pure.adaptive_decode(*args)
    finally:
        _pure.SETTLE_SYMBOLS, _pure.AHEAD_SYMBOLS = saved


EAGER = SimpleNamespace(adaptive_decode=eager_adaptive_decode)


@pytest.fixture(scope="module")
def coders(request):
    """The oracle, the numpy coder and the compiled kernels unless they cannot build."""
    found = [ORACLE, _pure]
    try:
        found.append(request.getfixturevalue("kernels"))
    except pytest.skip.Exception:
        pass
    return found


@pytest.fixture(scope="module")
def decoders(coders):
    """The coders, with _pure also parsing ahead as early as it can."""
    return [*coders[:2], EAGER, *coders[2:]]


def exact_outcome(fn, *args):
    try:
        return "ok", bytes(fn(*args))
    except Exception as exc:  # noqa: BLE001 - the type and message are compared
        return "raised", type(exc), str(exc)


def agree_exactly(decoders, *args):
    """Every adaptive decoder gives the oracle's symbols or its error and message."""
    first, *rest = [exact_outcome(d.adaptive_decode, *args) for d in decoders]
    for other in rest:
        assert other == first
    return first


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return "raised", type(exc)


def agree(coders, name, *args):
    """Every coder's entry point `name` gives the oracle's result or error type."""
    first, *rest = [outcome(getattr(c, name), *args) for c in coders]
    for other in rest:
        assert other == first
    return first


def ints(values):
    return np.array(values, dtype=np.int64)


def geometric(rng, n, m, spill=0.01):
    """Mapped residuals of mean about 2m, with a few long quotients."""
    values = rng.geometric(1.0 / (2 * m + 1), n) - 1
    values[rng.random(n) < spill] *= 40
    return values


def packed(chunks):
    """_Packer's (payload, bit length) after one write per (values, m)
    chunk, m passed as the encoders pass it: one cached GolombParam, or an
    array of parameters."""
    packer = _pure._Packer()
    for values, m in chunks:
        packer.write(ints(values), _pure._golomb(int(m)) if np.ndim(m) == 0 else m)
    return packer.finish(), packer.bit_length


# --- fixed m -------------------------------------------------------------------

@given(m=st.sampled_from(FIXED_MS), data=st.data())
@settings(max_examples=120, deadline=None)
def test_fixed_m_parity(m, data, coders):
    values = ints(data.draw(st.lists(st.integers(0, 70 * m), max_size=300)))
    ok, (payload, nbits) = agree(coders, "golomb_encode", values, m)
    assert ok == "ok"
    assert agree(coders, "golomb_decode", payload, len(values),
                 m) == ("ok", values.tobytes())


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_per_symbol_m_parity(data):
    pairs = data.draw(st.lists(st.tuples(st.integers(0, 5000), st.integers(1, 64)),
                               max_size=300))
    values = np.array([v for v, _ in pairs], dtype=np.int64)
    ms = np.array([m for _, m in pairs], dtype=np.int64)
    packer = _pure._Packer()
    packer.write(values, ms)
    got = packer.finish(), packer.bit_length
    assert got == oracle_write(values.tolist(), [GolombParam(int(m)) for m in ms])


@pytest.mark.parametrize("block, n", [
    pytest.param(block, n, id=str(n))
    for block in (SMALL_BLOCK, BLOCK)
    for n in (block - 1, block, block + 1, 2 * block + 1)])
def test_lengths_at_the_block_size(block, n, coders, monkeypatch):
    monkeypatch.setattr(_pure, "BLOCK_SYMBOLS", block)
    rng = np.random.default_rng(n)
    values = geometric(rng, n, 3)
    ok, (payload, _) = agree(coders, "golomb_encode", values, 3)
    assert ok == "ok"
    assert agree(coders, "golomb_decode", payload, n, 3) == ("ok", values.tobytes())
    est_int = rng.integers(0, 50, n)
    est_raw = rng.exponential(4.0, n)
    for args in ((est_int, False, 16), (est_raw, True, 1)):
        assert agree(coders, "adaptive_encode", values, *args)[0] == "ok"


@pytest.mark.parametrize("block", [SMALL_BLOCK, BLOCK])
def test_decode_stream_rounds_and_unmaps_a_block_at_a_time(block, monkeypatch):
    # decode_stream rounds every prediction, block by block, before it
    # reads a codeword, and unmaps and range-checks a fixed-m stream's
    # codewords a block at a time; errors name the stream's index
    monkeypatch.setattr(_pure, "BLOCK_SYMBOLS", block)
    rng = np.random.default_rng(block)
    n = 3 * block + 5
    xs = rng.integers(0, 100, n)
    pred = xs + rng.laplace(0.0, 4.0, n)
    for header in (codec.StreamHeader(mode="fixed", rho=3, tau=16, m=9, alphabet_q=100),
                   codec.StreamHeader(mode="adaptive", rho=1, tau=16, alphabet_q=100)):
        data = codec.encode_stream(xs, header, predictions=pred)
        assert codec.decode_stream(data, predictions=pred) == xs.tolist()
        # predictions 200 higher from symbol 2 * block + 7 on decode above the alphabet
        bad = 2 * block + 7
        shifted = pred.copy()
        shifted[bad:] += 200
        with pytest.raises(CorruptStreamError, match=f"symbol {bad} "):
            codec.decode_stream(data, predictions=shifted)
        # a bad prediction in the last block raises before the cut payload,
        # resealed so that the decoder, not the container, finds it short
        payload = payload_of(data)
        cut = with_payload(data, payload[:len(payload) // 2])
        shifted[-1] = math.nan
        with pytest.raises(CorruptStreamError):
            codec.decode_stream(cut, predictions=pred)
        with pytest.raises(ValueError, match="must be finite"):
            codec.decode_stream(cut, predictions=shifted)
    # no more than a block of predictions is rounded at once, and a stream
    # of at most one block in one call
    sizes = []
    real = codec._round_predictions
    monkeypatch.setattr(codec, "_round_predictions",
                        lambda p, *a: sizes.append(p.size) or real(p, *a))
    for count, calls in ((block, [block]), (block + 1, [block, 1]),
                         (n, [block] * 3 + [5])):
        for header in (codec.StreamHeader(mode="fixed", rho=3, tau=16, m=9),
                       codec.StreamHeader(mode="adaptive", rho=1, tau=16)):
            data = codec.encode_stream(xs[:count], header, predictions=pred[:count])
            sizes.clear()
            assert codec.decode_stream(data, predictions=pred[:count]) == xs[:count].tolist()
            assert sizes == calls


@pytest.mark.parametrize("extra", [-1, 0, 1])
@pytest.mark.parametrize("m", [1, 13])
def test_payloads_at_the_window_size(extra, m, coders):
    # payloads of one and of three windows' bits, give or take one, so
    # codewords straddle every window edge at some offset
    rng = np.random.default_rng(extra + 5)
    for windows in (1, 3):
        values = geometric(rng, windows * WINDOW // 7, m)
        payload, nbits = _pure.golomb_encode(values, m)
        target = windows * WINDOW + extra
        if m == 1:  # pad with one-bit codewords up to exactly target bits
            values = np.concatenate((values, np.zeros(target - nbits, np.int64)))
            payload, nbits = _pure.golomb_encode(values, m)
            assert nbits == target
        assert agree(coders, "golomb_decode", payload, len(values),
                     m) == ("ok", values.tobytes())


@pytest.mark.parametrize("m", [1, 3, 64])
def test_codewords_longer_than_the_window(m, coders):
    # quotients of one, two and three windows, at odd bit offsets; three
    # windows are more than a pack, which the writer then packs alone,
    # and MAX_RUN is the longest quotient the format takes
    values = ints([5, m * (WINDOW + 3) + m - 1, 2, m * (3 * WINDOW), 1, m * (WINDOW - 1), 0,
                   MAX_RUN * m + m - 1, 3])
    ok, (payload, nbits) = agree(coders, "golomb_encode", values, m)
    assert ok == "ok" and nbits > 5 * WINDOW
    g = GolombParam(m)
    for carry in (1, 7):
        assert packed([([0] * carry, 1), (values.tolist(), m)]) == oracle_write(
            [0] * carry + values.tolist(), [GolombParam(1)] * carry + [g] * len(values))
    assert agree(coders, "golomb_decode", payload, len(values),
                 m) == ("ok", values.tobytes())


def run_payload(j, m, tail=0):
    """One codeword with quotient j (remainder m - 1) and tail zero codewords."""
    sink = BitSink()
    sink.write_unary(j)
    sink.write_minimal_binary(m - 1, GolombParam(m))
    for _ in range(tail):
        sink.write_unary(0)
        sink.write_minimal_binary(0, GolombParam(m))
    return sink.finish()


@pytest.mark.parametrize("m", [1, 3, 13])
def test_unary_run_of_max_run_decodes_and_one_more_raises(m, coders):
    payload = run_payload(MAX_RUN, m, tail=3)
    assert agree(coders, "golomb_decode", payload, 4, m) == (
        "ok", ints([MAX_RUN * m + m - 1, 0, 0, 0]).tobytes())
    # one more, closed by its zero or cut off by the end of the payload,
    # and a cut run of MAX_RUN, which only the payload's end stops
    for payload, message in ((run_payload(MAX_RUN + 1, m, tail=3), "unary run exceeds"),
                             (b"\xff" * (MAX_RUN // 8 + 1), "unary run exceeds"),
                             (b"\xff" * (MAX_RUN // 8), "unexpected end of stream")):
        for coder in coders:
            with pytest.raises(CorruptStreamError, match=message):
                coder.golomb_decode(payload, 4, m)


@pytest.mark.parametrize("m", [1, 2, 13])
def test_every_truncation_of_a_fixed_payload(m, coders):
    values = geometric(np.random.default_rng(m), 400, m)
    payload, _ = _pure.golomb_encode(values, m)
    for cut in range(len(payload)):
        assert agree(coders, "golomb_decode", payload[:cut], len(values),
                     m) == ("raised", CorruptStreamError)
    assert agree(coders, "golomb_decode", payload, len(values),
                 m) == ("ok", values.tobytes())


def test_encode_error_parity(coders):
    # the first bad symbol decides, whatever its block
    big = np.zeros(BLOCK + 3, np.int64)
    big[BLOCK + 1] = MAX_RUN * 3 + 2
    assert agree(coders, "golomb_encode", big, 3)[0] == "ok"
    big[BLOCK + 1] += 1
    assert agree(coders, "golomb_encode", big, 3) == ("raised", ValueError)
    assert agree(coders, "adaptive_encode", ints([3, -2, 1]), ints([1, 1, 1]), False,
                 4) == ("raised", ValueError)
    assert agree(coders, "golomb_encode", ints([1]), 0) == ("raised", ValueError)
    # both backends refuse an m over the format's M_MAX
    for backend in coders[1:]:
        with pytest.raises(ValueError):
            backend.golomb_encode(ints([1]), M_MAX + 1)
        with pytest.raises(ValueError):
            backend.golomb_decode(b"\x00", 1, M_MAX + 1)


# --- the writer and the vector arithmetic around it ----------------------------

PACK = _pure.BLOCK_BITS


def filling(rng, g, total, last):
    """Values whose codewords under g take exactly ``total`` bits; the
    last has remainder ``last`` and a quotient that takes up the rest."""
    values, left = [], total
    tail = code_length(last, g)
    while left > tail + 8 + g.bits:  # room for any draw, then the last codeword
        v = int(rng.integers(0, 8 * g.m))
        values.append(v)
        left -= code_length(v, g)
    return values + [(left - tail) * g.m + last]


@pytest.mark.parametrize("m", [1, 2, 3, 13, 64])
def test_packer_at_the_edges_of_its_packs(m, coders):
    # packs of exactly PACK bits, each after `carry` bits left over from
    # the last: the last codeword of a pack ends on its last bit (a field
    # bit, or at m = 1 the closing zero), and the next, of quotient 0,
    # has its closing zero on the first bit after the carry
    g = GolombParam(m)
    rng = np.random.default_rng(m)
    values = []
    for last in (0, m - 1, m // 2):
        values += filling(rng, g, PACK, last)
        values += [last] + filling(rng, g, PACK - code_length(last, g), m - 1)
    assert sum(code_length(v, g) for v in values) == 6 * PACK
    values += [int(v) for v in geometric(rng, 500, m)]
    for carry in range(8):
        assert packed([([0] * carry, 1), (values, m)]) == oracle_write(
            [0] * carry + values, [GolombParam(1)] * carry + [g] * len(values))
    ok, (payload, _) = agree(coders, "golomb_encode", ints(values), m)
    assert ok == "ok"
    assert agree(coders, "golomb_decode", payload, len(values),
                 m) == ("ok", ints(values).tobytes())


def test_packer_with_per_symbol_m_from_1_to_64():
    # m = 1 makes the narrowest field 0 bits wide, so every plane of the
    # m = 64 fields is selected; the mix also spans packs and carries
    rng = np.random.default_rng(4)
    for n, carry in ((40, 0), (3000, 5), (30000, 3)):
        ms = rng.choice([1, 64, 2, 3, 33, 1, 17], n)
        ms[::5] = 1
        values = (rng.random(n) * 6 * ms).astype(np.int64)
        got = packed([([0] * carry, 1), (values.tolist(), ms)])
        params = [GolombParam(1)] * carry + [GolombParam(int(m)) for m in ms]
        assert got == oracle_write([0] * carry + values.tolist(), params)


@pytest.mark.parametrize("m", [1, 2, 3, M_MAX])
def test_codeword_fields_near_the_top_of_int64(m):
    top = (1 << 63) - 1
    values = [v for c in (1 << 62, top - 200) for v in range(c - 200, c + 200)]
    values += [0, 1, m - 1, m, top]
    g = GolombParam(m)
    expected = []
    for v in values:
        q, k = divmod(v, m)
        field, width = (k, g.bits - 1) if k < g.threshold else (k + g.threshold, g.bits)
        expected.append((q, field, width))
    for param in (g, np.full(len(values), m)):
        q, field, width = bitcoder.codeword_fields(ints(values), param)
        assert list(zip(q.tolist(), field.tolist(), width.tolist())) == expected


def rounded(preds, rho, tau):
    """codec._round_predictions' numerators, or its ValueError's message."""
    try:
        numerators, peak = codec._round_predictions(np.array(preds, np.float64), rho, tau)
    except ValueError as exc:
        return str(exc)
    assert peak == max((abs(n) for n in numerators.tolist()), default=0)
    return numerators.tolist()


def test_round_predictions_against_the_scalar_rounding():
    for rho, tau in ((1, 1), (1, 4), (3, 16), (5, 5), (2, 0xFFFF)):
        p = qmap.Precision(rho, tau)
        ties = [(k + 0.5) * rho / tau for k in range(-40, 40)]
        preds = ties + [0.0, -0.0, 1e-300, 2.5e9, -7.75e12]
        assert rounded(preds, rho, tau) == [qmap.round_prediction(x, p) for x in preds]
    finite = "predictions must be finite"
    for bad in (math.inf, -math.inf, math.nan):
        assert rounded([1.0, bad, 2.0], 1, 4) == finite
        with pytest.raises(ValueError, match="must be finite"):
            qmap.round_prediction(bad, qmap.Precision(1, 4))
    # a NaN is reported as such even beside an overflowing entry
    assert rounded([1e30, math.nan], 1, 1) == finite
    assert rounded([math.nan, -1e30], 3, 16) == finite
    assert rounded([1e30, 2.0], 1, 1) == "prediction magnitude overflows the residual range"


@pytest.mark.parametrize("rho", [1, 3, 4096])
def test_round_predictions_at_the_numerator_limit(rho):
    # k = (2**62 - 1) // rho is the widest quotient whose numerator rho*k
    # stays below 2**62: of the two adjacent floats around it, the one
    # the scalar rule rounds to k at most is taken, the next refused
    p = qmap.Precision(rho, rho)
    k_max = ((1 << 62) - 1) // rho

    def quotient(x):
        return qmap.round_prediction(x, p) // rho

    for sign in (1, -1):
        out = sign * math.inf
        x = sign * float(k_max)
        while abs(quotient(x)) > k_max:
            x = np.nextafter(x, 0.0)
        while abs(quotient(np.nextafter(x, out))) <= k_max:
            x = np.nextafter(x, out)
        past = np.nextafter(x, out)
        assert abs(quotient(x)) == k_max or rho != 4096  # 2**50 - 1 is a float
        assert rounded([x], rho, rho) == [qmap.round_prediction(x, p)]
        assert rounded([past], rho, rho) == (
            "prediction magnitude overflows the residual range")


@pytest.mark.parametrize("tau", [1, 4, 16])
def test_unmap_array_matches_unmap_to_the_edges(tau):
    rng = np.random.default_rng(tau)
    n = 4000
    values = np.concatenate((rng.integers(0, 1 << 62, n), rng.integers(0, 64, n)))
    nums = np.concatenate((rng.integers(1 - LIMIT, LIMIT, n), rng.integers(-99, 99, n)))
    edges = ints([0, 1, LIMIT - 1, LIMIT - 2])
    values = np.concatenate((values, np.repeat(edges, 4)))
    nums = np.concatenate((nums, np.tile(ints([LIMIT - 1, 1 - LIMIT, 0, -1]), 4)))
    got = qmap.unmap_array(values, nums, tau).tolist()
    assert got == [scalarfold.unmap(v, p, tau) for v, p in zip(values.tolist(), nums.tolist())]


# --- adaptive m -----------------------------------------------------------------

@pytest.mark.parametrize("block, at, overshoot", [
    pytest.param(block, at, overshoot, id=f"{overshoot}-{at}")
    for block, ats in ((SMALL_BLOCK, (SMALL_BLOCK - 1, SMALL_BLOCK, SMALL_BLOCK + 1)),
                       (BLOCK, (0, 100, BLOCK - 1, BLOCK, BLOCK + 1)))
    for overshoot in (0, 5) for at in ats])
def test_saturation_inside_a_block_and_on_its_edge(block, at, overshoot, coders, monkeypatch):
    # the sum reaches EST_SATURATION (exactly, or past it) at symbol `at`,
    # then takes increments that would wrap a 64-bit sum
    monkeypatch.setattr(_pure, "BLOCK_SYMBOLS", block)
    n = block + 40
    est = np.ones(n, np.int64)
    est[at] = SAT - at + overshoot
    for i in range(at + 1, at + 6):
        est[i] = SAT - 1
    values = geometric(np.random.default_rng(at), n, 8)
    assert agree(coders, "adaptive_encode", values, est, False, 16)[0] == "ok"
    sums = _estcore.running_sums(0, est, False).tolist()
    assert sums == oracle_sums(est, False)
    # continued from a block's last sum, as the pure encoder runs it
    assert (_estcore.running_sums(sums[block - 1], est[block:], False).tolist()
            == sums[block:])
    assert all(s == SAT for s in sums[at:])
    if at:
        assert sums[at - 1] == at


def test_select_m_array_matches_select_m_on_seeded_triples():
    # the 20,000 triples of test_codec.test_select_m_agrees_with_exp_rule
    rng = np.random.default_rng(17)
    triples = []
    for _ in range(20_000):
        t = int(rng.integers(1, 10**6))
        tau = int(rng.integers(1, 0x10000))
        s = int(rng.integers(1, t * tau * 200))
        triples.append((t, s, tau))
    expect = [table_m(t, s, tau) for t, s, tau in triples]
    assert [select_m(t, s, tau) for t, s, tau in triples] == expect
    for (t, s, tau), m in zip(triples[:500], expect):
        assert select_m_array(np.array([t]), np.array([s]), tau)[0] == m
    # the quotient reads t and tau only as float(t * tau), exact in int64 here
    t = np.array([t * tau for t, _, tau in triples], dtype=np.int64)
    s = np.array([s for _, s, _ in triples], dtype=np.int64)
    assert select_m_array(t, s).tolist() == expect


def test_select_m_array_on_log_boundary_ties_and_extremes():
    sums, expect = [], []
    for k, lb in enumerate(_estcore.LOG_BOUNDARIES, start=1):
        s = -1.0 / lb
        for x in (s, math.nextafter(s, 0.0), math.nextafter(s, math.inf)):
            sums.append(x)
            expect.append(table_m(1, x))
            if -1.0 / x == lb:
                assert expect[-1] == k
    got = select_m_array(np.ones(len(sums), dtype=np.int64), np.array(sums))
    assert got.tolist() == expect == [select_m(1, x) for x in sums]
    t = np.array([0, 5, 100, 1, 1], dtype=np.int64)
    s = np.array([0, 0, 1, 10**15, SAT], dtype=np.int64)
    assert select_m_array(t, s, 16).tolist() == [table_m(a, b, 16) for a, b in zip(t, s)]
    assert select_m_array(t, s, 16).tolist() == [1, 1, 1, 64, 64]


# every boundary and the two floats on each side of it, then -inf (a raw
# sum that overflows the quotient), -0.0 (t = 0) and the most negative
# finite quotients: t * tau = 2**63 - 1 over s = 1, and the float limit
GUESS_QUOTIENTS = [x for lb in LOG_BOUNDARIES for x in ulps_around(lb)] + [
    -math.inf, -0.0, -float(1 << 63), -sys.float_info.max]


def test_guess_m_is_m_or_one_less():
    # what makes select_m_array's one compare exact: the guess is never
    # above m and never below m - 1; it is the closed form, clipped
    c = 2 * math.log(2)
    guess = _estcore.guess_m(np.array(GUESS_QUOTIENTS))
    assert guess.dtype == np.int64
    for x, g in zip(GUESS_QUOTIENTS, guess.tolist()):
        m = m_of_quotient(x)
        assert m - 1 <= g <= m, (x.hex(), g, m)
        form = math.ceil(-c / x - 0.5) if x else MAX_M  # -c / -0.0 is +inf
        assert g == min(max(form, 1), MAX_M), x.hex()
    # the guess is one below m on some boundary of every interval but m = 1,
    # so the compare is needed at each
    low = {m_of_quotient(x) for x, g in zip(GUESS_QUOTIENTS, guess.tolist())
           if g < m_of_quotient(x)}
    assert low == set(range(2, MAX_M + 1))


def test_select_m_array_on_the_guess_quotients():
    # the same quotients as sums: a raw sum s = -1 / x at t = 1, which
    # reaches most of them; -inf from a sum that overflows, -0.0 from t = 0
    finite = [x for x in GUESS_QUOTIENTS if math.isfinite(x) and x]
    t = [1] * len(finite) + [2, 0, 7]
    s = [-1.0 / x for x in finite] + [5e-324, 3.0, 0.0]
    got = select_m_array(np.array(t), np.array(s)).tolist()
    assert got == [table_m(a, b) for a, b in zip(t, s)] == [select_m(a, b) for a, b in zip(t, s)]
    assert got[-3:] == [1, MAX_M, 1]
    # the most negative integer quotient, and a zero sum past t = 0
    t, s = ints([(1 << 63) - 1, 1, 5]), ints([1, 0, 0])
    assert select_m_array(t, s).tolist() == [table_m(a, b) for a, b in zip(t, s)]


@pytest.mark.parametrize("raw", [False, True])
@pytest.mark.parametrize("tau", [1, 16, TAU_MAX])
def test_select_m_array_matches_select_m_on_seeded_sums(tau, raw):
    # quotients log-uniform over every m's interval and past both ends,
    # with zero sums among them (m = 1 there, wherever they fall)
    rng = np.random.default_rng(tau + raw)
    n = 4000
    t = rng.integers(0, 1 << 30, n)
    target = np.exp(rng.uniform(math.log(1e-3), math.log(4.0), n))
    s = t * tau / target
    s = s if raw else s.astype(np.int64)
    s[::17] = 0
    if raw:
        s[5::31] = 5e-324  # the quotient overflows to -inf
    got = select_m_array(t, s, tau).tolist()
    pairs = list(zip(t.tolist(), s.tolist()))
    assert got == [table_m(a, b, tau) for a, b in pairs] == [select_m(a, b, tau) for a, b in pairs]
    assert set(got) == set(range(1, MAX_M + 1))


@pytest.mark.parametrize("m", [1, 3, 64, M_MAX])
def test_codeword_fields_split_in_floats_to_their_exact_edge(m):
    # an array of m splits values below 2**52 in doubles and the others
    # as integers: on each side of 2**52, and at the largest legal value
    # under m, q, field and width are divmod's and the minimal-binary split
    g = GolombParam(m)
    top = MAX_RUN * m + m - 1
    edge = [(1 << 52) + d for d in range(-2, 3)]
    for values in ([top, 0, m - 1, m, top - 1], edge[:2] + [top], edge):
        q, field, width = bitcoder.codeword_fields(ints(values), np.full(len(values), m))
        expected = []
        for v in values:
            j, k = divmod(v, m)
            expected.append((j, *((k, g.bits - 1) if k < g.threshold
                                  else (k + g.threshold, g.bits))))
        assert list(zip(q.tolist(), field.tolist(), width.tolist())) == expected
    # the legal values are written as the oracle writes them and read back
    legal = [top, 0, m - 1, m, top - 1]
    payload, nbits = packed([(legal, np.full(len(legal), m))])
    assert (payload, nbits) == oracle_write(legal, [g] * len(legal))
    assert np.frombuffer(oracle_golomb_decode(payload, len(legal), m),
                         np.int64).tolist() == legal
    # one past the legal top is refused with its exact quotient
    with pytest.raises(ValueError, match=f"quotient {MAX_RUN + 1} exceeds"):
        packed([([top + 1], np.full(1, m))])


def intervals_holding(t, s, tau=1):
    """The m whose interval (m_interval) holds -float(t * tau) / float(s)."""
    x = -float(t * tau) / float(s)
    held = []
    for m in range(1, MAX_M + 1):
        lo, hi = _estcore.m_interval(m)
        if lo < x <= hi:
            held.append(m)
    return held


def test_m_interval_is_select_m_within_two_ulps_of_every_boundary():
    # ln theta_hat on each log-boundary and 1 or 2 ulps to either side:
    # exactly one interval holds it, select_m's.  Raw float sums reach
    # every target from t = 1 .. 13; integer sums s = 2**60 reach it as
    # the exact quotient t / 2**60, and the sums 1 apart round around it
    assert _estcore.m_interval(1)[0] == -math.inf
    assert _estcore.m_interval(MAX_M)[1] == math.inf
    for m in range(1, MAX_M):
        assert _estcore.m_interval(m)[1] == _estcore.m_interval(m + 1)[0]
    raw_hits = int_hits = 0
    for lb in LOG_BOUNDARIES:
        for x in ulps_around(lb):
            for t in (1, 3, 5, 7, 11, 13):
                for s in ulps_around(-t / x, 3):
                    assert intervals_holding(t, s) == [table_m(t, s)]
                    raw_hits += -t / s == x
            t = int(-x * 2.0 ** 60)
            int_hits += -float(t) / float(1 << 60) == x
            for s in ((1 << 60) - 1, 1 << 60, (1 << 60) + 1):
                for tau in (1, 3):
                    assert intervals_holding(t, s, tau) == [table_m(t, s, tau)]
    assert int_hits == 5 * MAX_M and raw_hits >= 5 * MAX_M


def test_m_interval_at_a_zero_sum_and_past_the_cap():
    # s <= 0 gives m = 1 whatever t is: the interval test is not asked
    for t in (0, 1, 10**6):
        assert select_m(t, 0, 16) == select_m(t, 0.0) == 1
    # past the last boundary, and at t = 0 (ln theta_hat = -0.0), m = 64
    for t, s, tau in ((1, 10**18, 1), (1, 1e300, 1), (0, 5, 16), (3, SAT, 16)):
        assert select_m(t, s, tau) == MAX_M
        assert intervals_holding(t, s, tau) == [MAX_M]
    # a raw sum so small that the quotient overflows to -inf gives m = 1,
    # which the test of m = 1's interval leaves to select_m
    assert select_m(2, 5e-324) == 1 and intervals_holding(2, 5e-324) == []


# --- adaptive decode, parsing ahead ----------------------------------------------

RANGE = (qmap.SYMBOL_MIN, qmap.SYMBOL_MAX)
QUANTUM = 2.0 ** -20  # raw sums are multiples of this, so every sum is exact
SETTLE_RUN = _pure.SETTLE_SYMBOLS + 1  # m has settled from this symbol on


@pytest.fixture(scope="module")
def pure_decoders(decoders):
    """The decoders that read EST_SATURATION when they run: all but the
    compiled one."""
    return decoders[:3]


def unfolded(values):
    """The residual numerator r at tau = 1 that map_residual takes to each value."""
    return np.where(values % 2 == 0, values // 2, -(values + 1) // 2)


def raw_case(xs, values, inc):
    """Decoder arguments for symbols xs coded as values, raw estimator, tau = 1,
    with estimator increments inc (multiples of QUANTUM, so x - pred_x is
    exact and every coder adds the same increments)."""
    xs, values = ints(xs), ints(values)
    payload, _ = oracle_adaptive_encode(values, inc, True, 1)
    return payload, len(xs), xs - unfolded(values), xs - inc, 1, True


def int_case(xs, inc):
    """Decoder arguments for symbols xs under the integer estimator, tau = 1,
    with increments inc: each increment d is the residual numerator d,
    coded as the value 2d."""
    xs, inc = ints(xs), ints(inc)
    payload, _ = oracle_adaptive_encode(2 * inc, inc, False, 1)
    return payload, len(xs), xs - inc, np.zeros(len(xs)), 1, False


def case_for(xs, values, sums, raw):
    """raw_case or int_case (which ignores values) reaching the given sums."""
    inc = np.diff(np.concatenate(([0], sums)))
    return raw_case(xs, values, inc) if raw else int_case(xs, inc)


def sums_for(ms, raw):
    """Estimator sums after each symbol that put symbol t's ln theta just
    inside the bottom of ms[t]'s interval, or as near as a non-decreasing
    sum gets (a sum already too large for ms[t] stays); symbol 0 has m = 1."""
    quantum = QUANTUM if raw else 1
    sums, s = [], 0
    for t, m in enumerate([*ms[1:], ms[-1]], start=1):
        bottom = LOG_BOUNDARIES[m - 2] * (1 - 1e-9) if m > 1 else 2 * LOG_BOUNDARIES[0]
        s = max(s, math.ceil(-t / bottom / quantum) * quantum)
        sums.append(s)
    return sums


def m_trace(sums, raw):
    """The m of each symbol, from the sums after each."""
    return [table_m(t, s) if raw else table_m(t, s, 1)
            for t, s in enumerate([0.0 if raw else 0, *sums[:-1]])]


def held_ms(runs):
    """Target m per symbol: each (m, length) of runs in turn."""
    return [m for m, length in runs for _ in range(length)]


def reference_hold(t, s, inc, m, tau, raw):
    """hold's (sums, j, m_next) from the estimator run over every symbol:
    table_m's m after each."""
    sums = _estcore.running_sums(s, inc, raw).tolist()
    scale = 1 if raw else tau  # table_m's tau
    for j, x in enumerate(sums):
        m_next = table_m(t + j + 1, x, scale)
        if m_next != m:
            return sums, j, m_next
    return sums, None, None


def hold_case(rng, kind, raw, tau, k):
    """k increments from symbol i on, the sum s before them, and i.

    "any" starts on the edge of a random m's interval, at log-uniform i,
    and draws each increment around a multiple of the mean so far, so
    ln theta_hat drifts across boundaries.  "zero" starts at sum 0 with
    increments of 0 past SETTLE_SYMBOLS; "saturating" brings the integer
    sum to EST_SATURATION inside the window, where m is 64."""
    scale = 1 if raw else tau  # select_m's tau
    i = int(np.exp(rng.uniform(np.log(SETTLE_RUN), np.log(10**6))))
    if kind == "zero":
        i = int(rng.integers(SETTLE_RUN, 300))
        s, mean = 0, float(rng.uniform(0.5, 20.0))
    elif kind == "saturating":
        s = SAT - int(rng.integers(1, 1 << 50)) * int(rng.integers(1, 2000))
        mean = float(2 ** 58 // tau)
    else:
        lo, hi = _estcore.m_interval(int(rng.integers(1, MAX_M + 1)))
        edge = lo if hi == math.inf or (lo > -math.inf and rng.random() < 0.5) else hi
        s = max(1, math.ceil(-i * scale / edge))
        mean = s / (i * scale)
    factor = rng.choice([0.0, 0.5, 0.98, 1.02, 3.0], size=k)
    inc = np.floor(factor * mean * rng.uniform(0.0, 2.0, k) * scale)
    if kind == "zero":
        inc[:int(rng.integers(0, k + 1))] = 0
    if raw:
        return inc, float(s), i
    return inc.astype(np.int64), s, i


@pytest.mark.parametrize("raw", [False, True])
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["any", "zero", "saturating"]),
       tau=st.sampled_from([1, 3, 16]), k=st.integers(1, 600), cut=st.booleans())
@settings(max_examples=150, deadline=None)
def test_speculate_matches_the_estimator_run(raw, seed, kind, tau, k, cut):
    # _estcore.hold's sums, first switch and next m, against table_m's m
    # after every symbol of the window; cut ends the window on the
    # symbol after which m switches
    if raw and kind == "saturating":
        kind = "any"
    rng = np.random.default_rng(seed)
    inc, s, i = hold_case(rng, kind, raw, tau, k)
    m = table_m(i, s, 1 if raw else tau)
    expect = reference_hold(i, s, inc, m, tau, raw)
    if cut and expect[1] is not None:
        inc = inc[:expect[1] + 1]
        expect = (expect[0][:inc.size], *expect[1:])
    got = _estcore.hold(i, s, inc, m, tau, raw)
    assert (got[0].tolist(), *got[1:]) == expect
    assert got[1] is None or type(got[2]) is int


@pytest.mark.parametrize("k", range(2, MAX_M))
def test_speculate_on_a_log_boundary_tie(k):
    # ln theta_hat lands exactly on a boundary inside a window, which the
    # interval holds at its upper end and not at its lower one: rising to
    # L_k keeps m = k for one more symbol; falling to L_{k-1} leaves it
    lb = LOG_BOUNDARIES[k - 1]
    t, tie = tied_sum(lb, 100 * k)
    below = -(t - 1) / ((lb + 3 * LOG_BOUNDARIES[k - 2]) / 4)  # m = k, 3/4 down
    inc = np.array([0.0, tie - below, tie])
    expect = reference_hold(t - 2, below, inc, k, 1, True)
    assert table_m(t - 2, below) == k and expect[1] == 2 and expect[2] > k
    assert _estcore.hold(t - 2, below, inc, k, 1, True)[1:] == expect[1:]
    t, tie = tied_sum(LOG_BOUNDARIES[k - 2], 100 * k)
    inc = np.zeros(3)
    expect = reference_hold(t - 2, tie, inc, k, 1, True)
    assert table_m(t - 2, tie) == k and expect[1:] == (1, k - 1)
    assert _estcore.hold(t - 2, tie, inc, k, 1, True)[1:] == expect[1:]


def held_at_one_streams(n=20_000):
    """Two streams whose m stays 1 throughout, with their predictions: exact
    predictions at tau = 1, where every sum is 0, and symbols 0 against
    predictions of +-5e-324 under the raw estimator, where every quotient
    overflows to +inf."""
    xs = np.cumsum(np.random.default_rng(3).integers(-9, 10, n))
    denormal = np.resize([5e-324, -5e-324], n)
    return [(xs, xs.astype(np.float64), codec.StreamHeader("adaptive", tau=1)),
            (np.zeros(n, np.int64), denormal,
             codec.StreamHeader("adaptive", tau=16, raw_error_estimator=True))]


@pytest.mark.parametrize("case", range(2))
def test_a_held_m_is_parsed_ahead_in_few_windows(case, monkeypatch):
    # m = 1 holds through the zero sums and the infinite quotients, so the
    # pure decoder parses a few long windows, not one per symbol
    xs, pred, header = held_at_one_streams()[case]
    data, trace = codec.encode_stream(xs, header, pred, collect_trace=True)
    assert {m for m, _, _ in trace} == {1}
    calls = []
    real = _pure.parse_ahead
    monkeypatch.setattr(_pure, "parse_ahead", lambda *a: calls.append(1) or real(*a))
    monkeypatch.setattr(codec._backend, "adaptive_decode", _pure.adaptive_decode)
    assert codec.decode_stream(data, pred) == xs.tolist()
    assert len(calls) < 10


@pytest.mark.parametrize("raw", [False, True])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_adaptive_decode_when_m_changes_at_every_symbol(raw, data, decoders):
    # each symbol's m differs from the one before, so nothing parsed ahead
    # under an m survives more than one symbol
    targets = data.draw(st.lists(st.integers(1, 64), min_size=2, max_size=120))
    sums = sums_for(targets, raw)
    ms = m_trace(sums, raw)
    changes = [a != b for a, b in zip(ms, ms[1:])] + [False]
    n = changes.index(False) + 1  # the symbols up to the first that keeps its m
    sums = sums[:n]
    xs = data.draw(st.lists(st.integers(-50, 50), min_size=n, max_size=n))
    values = data.draw(st.lists(st.integers(0, 300), min_size=n, max_size=n))
    args = case_for(xs, values, sums, raw)
    assert agree_exactly(decoders, *args, *RANGE) == ("ok", ints(xs).tobytes())


@pytest.mark.parametrize("raw", [False, True])
@pytest.mark.parametrize("k", [2, 17, 63])
def test_adaptive_decode_with_m_flickering_on_a_log_boundary(k, raw, decoders):
    # ln theta a hair below and above the k-th boundary in turn, with runs
    # of a held m between the flickers
    n = 1500
    rng = np.random.default_rng(k)
    ms = [k + (t % 2 if (t // 300) % 2 else 0) for t in range(n)]
    sums = sums_for(ms, raw)
    realized = m_trace(sums, raw)
    assert sum(a != b for a, b in zip(realized, realized[1:])) > 300
    xs = rng.integers(-1000, 1000, n)
    args = case_for(xs, geometric(rng, n, k), sums, raw)
    assert agree_exactly(decoders, *args, *RANGE) == ("ok", xs.tobytes())


@pytest.mark.parametrize("m", [1, 3, 13])
def test_adaptive_decode_across_windows_and_longer_codewords(m, decoders):
    # one m held over several WINDOW_BITS, with codewords longer than a
    # window (quotients of one, two and three windows, and of MAX_RUN)
    # inside the run
    rng = np.random.default_rng(m)
    n = 3 * WINDOW // (m.bit_length() + 2)
    values = geometric(rng, n, m)
    for at, q in ((n // 5, WINDOW + 3), (n // 2, 3 * WINDOW), (n // 2 + 1, WINDOW - 1),
                  (4 * n // 5, MAX_RUN)):
        values[at] = q * m + m - 1
    sums = sums_for([m] * n, True)
    assert set(m_trace(sums, True)[1:]) == {m}
    xs = rng.integers(-5, 5, n)
    args = case_for(xs, values, sums, True)
    assert 8 * len(args[0]) > 3 * WINDOW
    assert agree_exactly(decoders, *args, *RANGE) == ("ok", xs.tobytes())


@pytest.mark.parametrize("raw", [False, True])
@pytest.mark.parametrize("tau", [1, 16])
def test_adaptive_decode_of_a_drifting_source(raw, tau, decoders):
    # theta walks as in the benchmark's adaptive streams, with the
    # encoder's own increments: long held runs and switches between them
    rng = np.random.default_rng(tau + raw)
    n = 12_000
    scale = np.repeat([0.5, 8.0, 2.0, 30.0], n // 4)
    xs = rng.integers(-3000, 3000, n)
    pred_x = xs + rng.laplace(0.0, scale)
    pred_n = np.floor(tau * pred_x + 0.5).astype(np.int64)
    r = tau * xs - pred_n
    values = np.where(r >= 0, 2 * r // tau, -(2 * r // tau) - 1)
    inc = np.abs(xs - pred_x) if raw else np.abs(r)
    payload, _ = _pure.adaptive_encode(values, inc, raw, tau)
    args = (payload, n, pred_n, pred_x, tau, raw, *RANGE)
    assert agree_exactly(decoders, *args) == ("ok", xs.tobytes())


@pytest.mark.parametrize("at", [0, 150, 700, 1000])
def test_adaptive_decode_as_the_integer_sum_saturates(at, pure_decoders, monkeypatch):
    # a real stream cannot reach EST_SATURATION (2**62: every increment is
    # at most tau * ((MAX_RUN + 1) * 64) / 2), so it is lowered here for the
    # pure coders, which read it when they run; the sum then saturates at
    # symbol `at`, inside a window parsed ahead for every at > 64, and m
    # falls from there as t grows
    rng = np.random.default_rng(at)
    n = 1500
    xs = rng.integers(-100, 100, n)
    inc = rng.integers(4, 7, n)
    sat = int(inc[:at + 1].sum())
    monkeypatch.setattr(_pure, "_SAT", sat)
    monkeypatch.setattr(_estcore, "EST_SATURATION", sat)
    args = int_case(xs, inc)
    assert agree_exactly(pure_decoders, *args, *RANGE) == ("ok", xs.tobytes())
    # decoded without the saturation, the same payload gives other symbols
    monkeypatch.setattr(_pure, "_SAT", SAT)
    monkeypatch.setattr(_estcore, "EST_SATURATION", SAT)
    assert agree_exactly(pure_decoders, *args, *RANGE) != ("ok", xs.tobytes())


@pytest.mark.parametrize("raw", [False, True])
def test_every_truncation_of_an_adaptive_payload(raw, decoders):
    rng = np.random.default_rng(11 + raw)
    n, switch = 400, 200
    ms = held_ms([(4, switch), (12, n - switch)])
    sums = sums_for(ms, raw)
    xs = rng.integers(-20, 20, n)
    args = case_for(xs, geometric(rng, n, 6), sums, raw)
    payload, rest = args[0], args[1:]
    for cut in range(len(payload)):
        outcome = agree_exactly(decoders, payload[:cut], *rest, *RANGE)
        assert outcome[:2] == ("raised", CorruptStreamError)
    assert agree_exactly(decoders, payload, *rest, *RANGE) == ("ok", xs.tobytes())


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_out_of_range_symbol_at_an_m_switch(offset, decoders):
    # symbols in [0, 10] but one, just before, at or just after the first
    # symbol under the new m; a window parsed ahead under the old m decodes
    # the symbols past the switch wrongly, and must not raise for them
    rng = np.random.default_rng(5 + offset)
    n, switch = 600, 300
    sums = sums_for(held_ms([(4, switch), (12, n - switch)]), True)
    ms = m_trace(sums, True)
    assert set(ms[SETTLE_RUN:switch]) == {4} and ms[switch] == 12
    xs = rng.integers(0, 11, n)
    bad = switch + offset
    xs[bad] = 50
    args = case_for(xs, geometric(rng, xs.size, 8), sums, True)
    assert agree_exactly(decoders, *args, 0, 50) == ("ok", xs.tobytes())
    message = f"symbol {bad} decodes to 50, outside [0, 10]"
    assert agree_exactly(decoders, *args, 0, 10) == ("raised", CorruptStreamError, message)


def test_a_window_under_the_outgoing_m_may_run_off_the_payload(decoders):
    # m holds at 2, then the sum stops growing and m falls to 1 for the
    # last 20 symbols, all zero: 1-bit codewords under m = 1, which a window
    # parsed ahead under m = 2 reads as 2-bit ones, so it runs out of
    # payload where the stream has none left to read
    rng = np.random.default_rng(8)
    sums = sums_for([2] * 300, True)
    sums += [sums[-1]] * 2000
    ms = m_trace(sums, True)
    n = ms.index(1, 300) + 20
    values = geometric(rng, n, 2)
    values[n - 20:] = 0
    xs = rng.integers(-9, 9, n)
    args = case_for(xs, values, sums[:n], True)
    assert set(ms[SETTLE_RUN:n - 20]) == {2} and set(ms[n - 20:n]) == {1}
    assert agree_exactly(decoders, *args, *RANGE) == ("ok", xs.tobytes())


def test_a_switch_on_a_windows_last_codeword_before_the_payload_ends(decoders):
    # m holds at 2 and falls to 1 for the last symbol, a 0: the 1-bit
    # codeword "0", which ends the payload on a byte boundary.  The window
    # parsed ahead under m = 2 reads every codeword up to the switch and
    # then runs off the payload, so its trailing error belongs to an m
    # that the last symbol is not coded under, and must not be raised
    rng = np.random.default_rng(21)
    sums = sums_for([2] * 100, True)
    sums += [sums[-1]] * 100
    ms = m_trace(sums, True)
    n = ms.index(1, 100) + 1
    assert set(ms[SETTLE_RUN:n - 1]) == {2} and ms[n - 1] == 1
    values = geometric(rng, n, 2)
    values[-1] = 0
    bits = sum(code_length(int(v), GolombParam(m)) for v, m in zip(values, ms))
    values[SETTLE_RUN] += 2 * (-bits % 8)  # each 2 adds one bit at m = 2
    xs = rng.integers(-9, 9, n)
    args = case_for(xs, values, sums[:n], True)
    assert 8 * len(args[0]) == bits + (-bits % 8)
    assert agree_exactly(decoders, *args, *RANGE) == ("ok", xs.tobytes())


def oracle_window(data, pos, size, g, want, final):
    """_decode_window's result, read one codeword at a time by BitSource
    from the window's bits alone (zero-padded to a whole byte, so a
    codeword that reads a pad bit does not fit)."""
    bits = np.unpackbits(data)[pos:pos + size]
    src = BitSource(np.packbits(bits).tobytes())
    values, ends = [], []
    while len(values) < want:
        try:
            value = src.read_unary() * g.m + src.read_minimal_binary(g)
        except CorruptStreamError as exc:
            if str(exc) != "unexpected end of stream":
                return values, ends, exc  # a run over MAX_RUN
            value = None
        if value is None or src.position > size:  # the window cuts it
            if final:
                return values, ends, CorruptStreamError("unexpected end of stream")
            return (values, ends, None) if values else None
        values.append(value)
        ends.append(src.position)
    return values, ends, None


def window_outcome(decoded):
    if decoded is None:
        return None
    values, ends, error = decoded
    return (list(map(int, values)), list(map(int, ends)),
            error and (type(error), str(error)))


CHAIN = 1 << _pure.CHAIN_LEVELS
PATTERNS = {"zeros": 0x00, "ones": 0xFF, "0xAA": 0xAA, "0x92": 0x92}


@given(m=st.sampled_from(FIXED_MS), offset=st.integers(0, 7), final=st.booleans(),
       kind=st.sampled_from(["random", *PATTERNS]), data=st.data())
@settings(max_examples=400, deadline=None)
def test_decode_window_matches_a_codeword_reader_on_any_bits(m, offset, final, kind, data):
    # any bits, not only an encoder's: runs closed inside a remainder
    # field, zeros at most b bits apart (0x92), windows of one zero per
    # bit (zeros) or none (ones), and counts around the chain's stride
    if kind == "random":
        payload = np.frombuffer(data.draw(st.binary(max_size=300)), np.uint8)
    else:
        length = data.draw(st.integers(0, 300))
        payload = np.full(length, PATTERNS[kind], np.uint8)
    size = data.draw(st.integers(0, max(8 * payload.size - offset, 0)))
    pos = offset
    want = data.draw(st.sampled_from([1, CHAIN - 1, CHAIN, CHAIN + 1, size + 1]))
    g = GolombParam(m)
    assert (window_outcome(_pure._decode_window(payload, pos, size, g, want, final))
            == window_outcome(oracle_window(payload, pos, size, g, want, final)))


def test_the_window_parser_counts_the_ones_of_every_field():
    # the table that counts a remainder field's one bits covers every
    # field of every m, with no numpy 2 popcount
    assert _pure._ONES.size > M_MAX
    assert _pure._ONES.tolist() == [bin(v).count("1") for v in range(_pure._ONES.size)]


@pytest.mark.parametrize("m", [1, 13])
@pytest.mark.parametrize("run", [MAX_RUN, MAX_RUN + 1])
def test_decode_window_on_a_run_at_max_run(m, run):
    # a unary run of MAX_RUN, which decodes, or of one more, which does
    # not, from bit 3, then dense zero codewords
    g = GolombParam(m)
    bits = np.zeros(3 + run + 4096, np.uint8)
    bits[:3 + run] = 1
    payload = np.packbits(bits)
    size = bits.size - 3
    for want, final in ((1, False), (CHAIN + 1, True), (size, False)):
        expect = window_outcome(oracle_window(payload, 3, size, g, want, final))
        assert (expect[2] is None) == (run == MAX_RUN)
        assert window_outcome(_pure._decode_window(payload, 3, size, g, want, final)) == expect


def test_decode_window_reports_the_first_bad_codeword():
    # a window holds every codeword it can, up to the first it cannot read,
    # and names what is wrong with that one
    g = GolombParam(3)
    sink = BitSink()
    for value in (5, 0):
        sink.write_unary(value // 3)
        sink.write_minimal_binary(value % 3, g)
    first = sink.bit_length
    sink.write_unary(MAX_RUN + 1)
    sink.write_minimal_binary(0, g)
    sink.write_unary(0)
    payload = np.frombuffer(sink.finish(), np.uint8)
    size = 8 * payload.size
    values, ends, error = _pure._decode_window(payload, 0, size, g, 4, True)
    assert values.tolist() == [5, 0] and ends[-1] == first
    assert str(error) == f"unary run exceeds {MAX_RUN} bits"
    # a codeword the window cuts: an error only where the payload ends there
    for final, message in ((True, "unexpected end of stream"), (False, None)):
        values, ends, error = _pure._decode_window(payload, 0, first + 100, g, 4, final)
        assert values.tolist() == [5, 0] and ends[-1] == first
        assert (error and str(error)) == message


@pytest.mark.parametrize("m", [1, 13])
def test_parse_ahead_returns_a_codeword_or_its_error(m):
    # a first codeword longer than the window comes back from one call,
    # whether the window is WINDOW_BITS (a fixed m) or sized from the
    # rate of a held m, whose 2-bit codewords make it 74 bits for 4 of
    # them; one the per-symbol reader cannot read comes back as its error
    g = GolombParam(m)
    extra = code_length(m - 1, g)  # the bits of a codeword past its unary run
    for held, held_bits in ((0, 0), (300, 600)):
        for length in (WINDOW + 1, 4 * WINDOW, MAX_RUN + extra):
            j = length - extra
            payload = np.frombuffer(run_payload(j, m, tail=3), np.uint8)
            values, ends, error = _pure.parse_ahead(payload, 0, g, 4, held, held_bits)
            assert values.tolist() == [j * m + m - 1, 0, 0, 0][:values.size]
            assert ends[0] == length and error is None
        cut = run_payload(4 * WINDOW, m)
        for payload in (run_payload(MAX_RUN + 1, m, tail=3), cut[:WINDOW // 8], cut[:-1]):
            with pytest.raises(CorruptStreamError) as expected:
                oracle_golomb_decode(payload, 1, m)
            values, ends, error = _pure.parse_ahead(
                np.frombuffer(payload, np.uint8), 0, g, 4, held, held_bits)
            assert values.size == 0 and str(error) == str(expected.value)


def oracle_reads(payload, pos, g):
    """Every codeword from bit pos, read by BitSource up to the first it
    cannot read: [(value, bit after it)] and the error for that one."""
    src = BitSource(payload)
    src.position = pos
    reads = []
    while True:
        try:
            value = src.read_unary() * g.m + src.read_minimal_binary(g)
        except CorruptStreamError as exc:
            return reads, exc
        reads.append((value, src.position))


def reader_outcome(reader, pos, g):
    try:
        return reader.read(pos, g)
    except Exception as exc:  # noqa: BLE001 - the type and message are compared
        return type(exc), str(exc)


@given(m=st.one_of(st.sampled_from(FIXED_MS), st.integers(1, MAX_M)),
       offset=st.integers(0, 7), final=st.booleans(),
       kind=st.sampled_from(["random", *PATTERNS]), text=st.sampled_from([1, 5, 8, 64]),
       read=st.sampled_from([1, 2, 16, _pure.READ_BYTES]),
       skip=st.sampled_from([0.0, 0.5, 0.9]), seed=st.integers(0, 2**32 - 1),
       data=st.data())
@settings(max_examples=400, deadline=None)
def test_codeword_reader_matches_a_bit_reader_on_any_bits(m, offset, final, kind, text,
                                                          read, skip, seed, data):
    # the window parser's inputs, read one codeword at a time, at every m
    # that has a lookup table and at fixed ones past it: a hit from
    # windows refilled `read` bytes at a time, or a scan of a text that
    # reaches the payload's end (final) or holds `text` bits from the
    # codeword that needs a refill, so that most texts end inside a
    # codeword; reads skip codewords as a decoder skips a window's
    if kind == "random":
        payload = data.draw(st.binary(max_size=300))
    else:
        payload = bytes([PATTERNS[kind]]) * data.draw(st.integers(0, 300))
    g = GolombParam(m)
    pos = min(offset, 8 * len(payload))
    reads, error = oracle_reads(payload, pos, g)
    expect = [*reads, (type(error), str(error))]
    starts = [pos] + [end for _, end in reads]
    skipped = np.random.default_rng(seed).random(len(starts)) < skip
    saved = _pure.WINDOW_BITS, _pure.READ_BYTES
    _pure.WINDOW_BITS, _pure.READ_BYTES = WINDOW if final else text, read
    try:
        reader = _pure.CodewordReader(payload)
        for start, want, passed in zip(starts, expect, skipped):
            if not passed:
                assert reader_outcome(reader, start, g) == want
    finally:
        _pure.WINDOW_BITS, _pure.READ_BYTES = saved


@pytest.mark.parametrize("m", [1, 13])
@pytest.mark.parametrize("run", [MAX_RUN, MAX_RUN + 1])
@pytest.mark.parametrize("text", [1, WINDOW])
def test_codeword_reader_on_a_run_at_max_run(m, run, text, monkeypatch):
    # a unary run of MAX_RUN, which reads, or of one more, which does not,
    # through texts that double from `text` bits until the run fits
    monkeypatch.setattr(_pure, "WINDOW_BITS", text)
    g = GolombParam(m)
    payload = run_payload(run, m, tail=3)
    reads, error = oracle_reads(payload, 0, g)
    assert (len(reads) >= 4) == (run == MAX_RUN)
    reader = _pure.CodewordReader(payload)
    starts = [0] + [end for _, end in reads]
    expect = [*reads, (type(error), str(error))]
    assert [reader_outcome(reader, start, g) for start in starts] == expect


TABLE_BITS = _pure.TABLE_BITS


def table_entry(table, window):
    """A lookup table's entry for a window: (value, length), or None for a miss."""
    entry = table[window]
    return (entry >> 4, entry & 15) if entry else None


def test_lookup_tables_match_a_bit_reader_on_every_window():
    # every entry of the table of every m the adaptive coder uses: the
    # codeword a bit reader reads from the window's bits where it ends
    # inside them, and a miss where it does not; the ones after the
    # window make any codeword that needs more bits end past it, or run
    # off the payload
    pad = 8 - TABLE_BITS % 8
    for m in range(1, MAX_M + 1):
        g = GolombParam(m)
        table = _pure._table(m)
        assert len(table) == 1 << TABLE_BITS
        for window in range(1 << TABLE_BITS):
            src = BitSource((((window + 1) << pad) - 1).to_bytes((TABLE_BITS + pad) // 8, "big"))
            try:
                want = (src.read_unary() * m + src.read_minimal_binary(g), src.position)
            except CorruptStreamError:
                want = None
            if want is not None and want[1] > TABLE_BITS:
                want = None
            assert table_entry(table, window) == want, (m, window)


def payload_ending(m, codewords, tail):
    """Whole bytes: the codewords under m, then ``tail`` one bits to the
    end, after a first codeword whose length makes them whole.  Returns
    the payload and the bit where the codewords begin."""
    g = GolombParam(m)
    used = sum(code_length(v, g) for v in codewords) + tail
    first = 0
    while (code_length(first, g) + used) % 8:
        first += 1
    sink = BitSink()
    for value in (first, *codewords):
        sink.write_unary(value // m)
        sink.write_minimal_binary(value % m, g)
    for _ in range(tail // 32):
        sink.write_bits(0xFFFFFFFF, 32)
    sink.write_bits((1 << tail % 32) - 1, tail % 32)
    assert sink.bit_length % 8 == 0
    return sink.finish(), code_length(first, g)


@pytest.mark.parametrize("m", range(1, MAX_M + 1))
def test_codeword_reader_at_the_end_of_the_payload(m):
    # codewords that end 0 to TABLE_BITS + 8 bits before the payload does,
    # of every length from one bit to longer than a window, then a run of
    # ones the payload cuts off: each reads as a bit reader reads it, from
    # the table or from a scan, and the cut run raises the bit reader's
    # error; a hit read from the zero pad past the payload would not
    g = GolombParam(m)
    codewords = [0, m - 1, m, 3 * m + m // 2, (TABLE_BITS + 2) * m]
    for tail in range(TABLE_BITS + 9):
        for last in range(len(codewords)):
            payload, start = payload_ending(m, codewords[last:], tail)
            reads, error = oracle_reads(payload, start, g)
            assert str(error) == "unexpected end of stream"
            expect = [*reads, (type(error), str(error))]
            starts = [start] + [end for _, end in reads]
            for read in (1, 2, _pure.READ_BYTES):
                saved = _pure.READ_BYTES
                _pure.READ_BYTES = read
                try:
                    reader = _pure.CodewordReader(payload)
                    assert [reader_outcome(reader, s, g) for s in starts] == expect
                finally:
                    _pure.READ_BYTES = saved


@pytest.mark.parametrize("m", [1, 2, 13, MAX_M])
@pytest.mark.parametrize("tail", [MAX_RUN, MAX_RUN + 1])
def test_codeword_reader_on_a_run_the_payload_cuts(m, tail):
    # a codeword, then a run of ones to the payload's end: MAX_RUN of them
    # are a cut codeword, one more a run too long
    g = GolombParam(m)
    payload, start = payload_ending(m, [m - 1], tail)
    reads, error = oracle_reads(payload, start, g)
    expect = [*reads, (type(error), str(error))]
    reader = _pure.CodewordReader(payload)
    assert [reader_outcome(reader, s, g) for s in (start, reads[0][1])] == expect


def test_lookup_tables_stay_one_per_m_up_to_the_cap():
    # the cache holds at most one table per m <= MAX_ADAPTIVE_M, in at
    # most 2.5 MB, and builds none past it, where the reader scans: a
    # fixed-mode lpc stream at m = 1000 round-trips and leaves it as it was
    tables = [_pure._table(m) for m in range(1, MAX_M + 1)]
    assert all(a is b for a, b in zip(tables, map(_pure._table, range(1, MAX_M + 1))))
    assert sorted(_pure._TABLES) == list(range(1, MAX_M + 1))
    assert sum(len(t) * t.itemsize for t in tables) <= 2.5 * 2**20
    before = dict(_pure._TABLES)
    assert _pure._table(MAX_M + 1) is None and _pure._table(1000) is None
    xs = np.random.default_rng(4).integers(-5000, 5000, 600)
    header = codec.StreamHeader(mode="fixed", m=1000, lpc=LpcConfig(2, 16, 16))
    assert codec.decode_stream(codec.encode_stream(xs, header)) == xs.tolist()
    g = GolombParam(1000)
    payload = oracle_golomb_encode(xs + 5000, 1000)[0]
    reads, _ = oracle_reads(payload, 0, g)
    reader = _pure.CodewordReader(payload)
    assert [reader.read(pos, g) for pos in [0] + [end for _, end in reads[:-1]]] == reads
    assert _pure._TABLES == before
    assert all(_pure._TABLES[m] is table for m, table in before.items())


def test_numerators_past_the_vector_unmap(decoders):
    # every decoder takes numerators up to 2**62 - 1 in magnitude, and
    # refuses one from 2**62 on before it reads any codeword, wherever
    # its symbol falls: in the cold start, in a held run or in a window
    rng = np.random.default_rng(2)
    n = 2000
    values = geometric(rng, n, 3)
    values[-1] = 300  # a long last codeword, which a cut payload loses
    pred_n = rng.integers(-1000, 1000, n)
    # odd values unmap below a numerator, even ones above it: all in int64
    for at, big, value in ((100, LIMIT - 1, 8), (101, 1 - LIMIT, 3), (700, LIMIT - 1, 5)):
        pred_n[at], values[at] = big, value
    inc = np.full(n, 3.0)
    payload, _ = _pure.adaptive_encode(values, inc, True, 1)
    xs = ints([scalarfold.unmap(int(v), int(p), 1) for v, p in zip(values, pred_n)])
    rest = (xs - inc, 1, True, -(1 << 63), (1 << 63) - 1)
    assert agree_exactly(decoders, payload, n, pred_n, *rest) == ("ok", xs.tobytes())
    refused = ("raised", ValueError, "prediction numerator out of range")
    for at, big in ((3, LIMIT), (700, -LIMIT), (1500, (1 << 63) - 1),
                    (n - 1, -(1 << 63))):
        wide = pred_n.copy()
        wide[at] = big
        assert agree_exactly(decoders, payload, n, wide, *rest) == refused
    # a payload cut short anywhere raises only once the numerators pass,
    # and numerators past count are not read
    cut = payload[:-8]
    assert agree_exactly(decoders, cut, n, wide, *rest) == refused
    assert agree_exactly(decoders, cut, n, pred_n, *rest) == (
        "raised", CorruptStreamError, "unexpected end of stream")
    assert agree_exactly(decoders, payload, n - 1, wide, *rest) == (
        "ok", xs[:-1].tobytes())


def test_non_finite_raw_values_are_refused_before_any_codeword(coders, decoders):
    # a NaN raw sum holds no m that every decoder agrees on, so every coder
    # refuses a non-finite raw increment, and every decoder a non-finite
    # raw prediction, before any codeword, as they refuse a numerator out
    # of range; the integer estimator reads no float, and no decoder reads
    # a prediction past count
    rng = np.random.default_rng(9)
    n = 600
    values = geometric(rng, n, 3)
    pred_x = rng.normal(0.0, 50.0, n)
    pred_n = np.floor(pred_x + 0.5).astype(np.int64)
    xs = ints([scalarfold.unmap(int(v), int(p), 1) for v, p in zip(values, pred_n)])
    inc = np.abs(xs - pred_x)
    payload, _ = _pure.adaptive_encode(values, inc, True, 1)
    int_payload, _ = _pure.adaptive_encode(values, np.abs(xs - pred_n), False, 1)
    wide = (-(1 << 63), (1 << 63) - 1)
    assert agree_exactly(decoders, payload, n, pred_n, pred_x, 1, True, *wide) == (
        "ok", xs.tobytes())
    refused = ("raised", ValueError, "predictions must be finite")
    for bad in (math.nan, math.inf, -math.inf):
        for at in (0, 5, 300, n - 1):
            increments, preds = inc.copy(), pred_x.copy()
            increments[at] = preds[at] = bad
            assert agree(coders, "adaptive_encode", values, increments, True, 1) == (
                "raised", ValueError)
            for coder in coders[1:]:
                with pytest.raises(ValueError, match="raw increments must be finite"):
                    coder.adaptive_encode(values, increments, True, 1)
            for data in (payload, b""):
                assert agree_exactly(decoders, data, n, pred_n, preds, 1, True,
                                     *wide) == refused
            assert agree_exactly(decoders, int_payload, n, pred_n, preds, 1, False,
                                 *wide) == ("ok", xs.tobytes())
        assert agree_exactly(decoders, payload, n - 1, pred_n, preds, 1, True, *wide) == (
            "ok", xs[:-1].tobytes())


@pytest.mark.parametrize("count, lo, hi", [
    (1 << 63, 0, 0), (-(1 << 63) - 1, 0, 0),
    (1, -(1 << 63) - 1, 0), (1, 0, 1 << 63),
])
def test_integers_past_the_c_types_overflow(count, lo, hi, coders):
    # count is a Py_ssize_t and lo, hi int64 in the compiled loops; both
    # backends refuse wider ones first, even where tau is out of range too
    for backend in coders[1:]:
        with pytest.raises(OverflowError):
            backend.adaptive_decode(b"\x00", count, ints([0]), np.zeros(1), 0, False, lo, hi)
        if (lo, hi) == (0, 0):
            with pytest.raises(OverflowError):
                backend.golomb_decode(b"\x00", count, 0)


# --- bounded memory -------------------------------------------------------------

PEAK_BOUND = 8 << 20  # bytes; whole-array working sets at 1M symbols pass 80 MB


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_peak_memory_does_not_grow_with_the_stream():
    n = 1_000_000
    values = np.random.default_rng(3).geometric(0.2, n) - 1
    (payload, _), peak = traced_peak(_pure.golomb_encode, values, 3)
    assert peak < PEAK_BOUND, peak
    decoded, peak = traced_peak(_pure.golomb_decode, payload, n, 3)
    assert decoded == values.tobytes()
    # the result's 8 bytes a symbol are the output, not working memory
    assert peak - 8 * n < PEAK_BOUND, peak
    est = np.ones(n, np.int64)
    (_, _), peak = traced_peak(_pure.adaptive_encode, values, est, False, 16)
    assert peak < PEAK_BOUND, peak


def adaptive_decode_working_peak(n):
    """Bytes adaptive_decode holds besides its output, over n symbols that
    keep m = 1: the raw estimator at tau = 1, symbols 0."""
    values = np.random.default_rng(3).geometric(0.2, n) - 1
    inc = np.ones(n)
    payload, _ = _pure.adaptive_encode(values, inc, True, 1)
    pred_n, pred_x = -unfolded(values), -inc
    decoded, peak = traced_peak(_pure.adaptive_decode, payload, n, pred_n, pred_x,
                                1, True, 0, 0)
    assert decoded == bytes(8 * n)
    # the result's 8 bytes a symbol are the output, not working memory
    return peak - 8 * n


def test_adaptive_decode_peak_memory_does_not_grow_with_the_stream():
    # a long run of one m is where the decoder parses furthest ahead
    short = adaptive_decode_working_peak(1_000_000)
    assert short < PEAK_BOUND, short
    long = adaptive_decode_working_peak(4_000_000)
    assert long - short < 1 << 19, (short, long)


@pytest.mark.parametrize("m", [1, 13, 64])
def test_peak_memory_of_a_long_codeword_before_dense_ones(m):
    # a quotient of 2**19 + 10 widens the window to 2**20 bits, whose
    # other half is codewords of value 0, all zeros; the parse keeps only
    # the zeros its codewords can reach (keeping them all takes 31 MiB)
    g = GolombParam(m)
    tail = (MAX_RUN + 1000) // (g.bits + 1)
    values = np.zeros(tail + 1, np.int64)
    values[0] = ((1 << 19) + 10) * m + m - 1
    payload, _ = _pure.golomb_encode(values, m)
    decoded, peak = traced_peak(_pure.golomb_decode, payload, values.size, m)
    assert decoded == values.tobytes()
    assert peak - len(decoded) < 20 << 20, peak
