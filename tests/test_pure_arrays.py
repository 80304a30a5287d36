"""The whole-array pure coder against the per-symbol loops it replaced.

``oracle_*`` below are the per-symbol loops frgc._pure ran before it
coded whole arrays: one codeword at a time through bitcoder.BitSink and
BitSource, on Python ints.  The numpy coder must agree with them bit for
bit, in its results and in the type of every error, and so must the
compiled kernels where they build.  The adaptive decoder, which parses
ahead under an m it has not confirmed yet, must also give the oracle's
error messages, which name the symbol that failed.
"""

import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frgc import _estcore, _pure, qmap
from frgc.bitcoder import (
    M_MAX,
    MAX_RUN,
    TAU_MAX,
    BitSink,
    BitSource,
    CorruptStreamError,
    GolombParam,
    symbol_out_of_range,
)
from frgc._estcore import LOG_BOUNDARIES, select_m, select_m_array

BLOCK = _pure.BLOCK_SYMBOLS
WINDOW = _pure.WINDOW_BITS
SAT = _estcore.EST_SATURATION
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
    sums = oracle_sums(increments, raw)
    before = [0.0 if raw else 0] + sums[:-1]
    params = [GolombParam(select_m(t, s) if raw else select_m(t, s, tau))
              for t, s in enumerate(before)]
    return oracle_write(ms.tolist(), params)


def oracle_adaptive_decode(payload, count, pred_n, pred_x, tau, raw, lo, hi):
    """The loop over symbols frgc._pure ran before it parsed ahead."""
    if not 1 <= tau <= TAU_MAX:
        raise ValueError(f"tau must be in [1, {TAU_MAX}], got {tau}")
    src = BitSource(payload)
    out = []
    s = 0.0 if raw else 0
    for t in range(count):
        m = select_m(t, s) if raw else select_m(t, s, tau)
        value = src.read_unary() * m + src.read_minimal_binary(GolombParam(m))
        n = int(pred_n[t])
        x = qmap.unmap(value, n, tau)
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


@pytest.mark.parametrize("n", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
def test_lengths_at_the_block_size(n, coders):
    rng = np.random.default_rng(n)
    values = geometric(rng, n, 3)
    ok, (payload, _) = agree(coders, "golomb_encode", values, 3)
    assert ok == "ok"
    assert agree(coders, "golomb_decode", payload, n, 3) == ("ok", values.tobytes())
    est_int = rng.integers(0, 50, n)
    est_raw = rng.exponential(4.0, n)
    for args in ((est_int, False, 16), (est_raw, True, 1)):
        assert agree(coders, "adaptive_encode", values, *args)[0] == "ok"


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
    # quotients of one, two and three windows, at odd bit offsets
    values = ints([5, m * (WINDOW + 3) + m - 1, 2, m * (3 * WINDOW), 1, m * (WINDOW - 1), 0])
    ok, (payload, nbits) = agree(coders, "golomb_encode", values, m)
    assert ok == "ok" and nbits > 5 * WINDOW
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


# --- adaptive m -----------------------------------------------------------------

@pytest.mark.parametrize("at", [0, 100, BLOCK - 1, BLOCK, BLOCK + 1])
@pytest.mark.parametrize("overshoot", [0, 5])
def test_saturation_inside_a_block_and_on_its_edge(at, overshoot, coders):
    # the sum reaches EST_SATURATION (exactly, or past it) at symbol `at`,
    # then takes increments that would wrap a 64-bit sum
    n = BLOCK + 40
    est = np.ones(n, np.int64)
    est[at] = SAT - at + overshoot
    for i in range(at + 1, at + 6):
        est[i] = SAT - 1
    values = geometric(np.random.default_rng(at), n, 8)
    assert agree(coders, "adaptive_encode", values, est, False, 16)[0] == "ok"
    sums = _estcore.running_sums(0, est, False).tolist()
    assert sums == oracle_sums(est, False)
    # continued from a block's last sum, as the pure encoder runs it
    assert (_estcore.running_sums(sums[BLOCK - 1], est[BLOCK:], False).tolist()
            == sums[BLOCK:])
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
    for t, s, tau in triples[:500]:
        assert select_m_array(np.array([t]), np.array([s]), tau)[0] == select_m(t, s, tau)
    # select_m reads t and tau only as float(t * tau), exact in int64 here
    t = np.array([t * tau for t, _, tau in triples], dtype=np.int64)
    s = np.array([s for _, s, _ in triples], dtype=np.int64)
    assert select_m_array(t, s).tolist() == [select_m(a, b, c) for a, b, c in triples]


def test_select_m_array_on_log_boundary_ties_and_extremes():
    sums, expect = [], []
    for k, lb in enumerate(_estcore.LOG_BOUNDARIES, start=1):
        s = -1.0 / lb
        for x in (s, math.nextafter(s, 0.0), math.nextafter(s, math.inf)):
            sums.append(x)
            expect.append(select_m(1, x))
            if -1.0 / x == lb:
                assert expect[-1] == k
    got = select_m_array(np.ones(len(sums), dtype=np.int64), np.array(sums))
    assert got.tolist() == expect
    t = np.array([0, 5, 100, 1, 1], dtype=np.int64)
    s = np.array([0, 0, 1, 10**15, SAT], dtype=np.int64)
    assert select_m_array(t, s, 16).tolist() == [select_m(a, b, 16) for a, b in zip(t, s)]
    assert select_m_array(t, s, 16).tolist() == [1, 1, 1, 64, 64]


# --- adaptive decode, parsing ahead ----------------------------------------------

RANGE = (qmap.SYMBOL_MIN, qmap.SYMBOL_MAX)
QUANTUM = 2.0 ** -20  # raw sums are multiples of this, so every sum is exact
SETTLE_RUN = _pure.SETTLE_SYMBOLS + 1  # m has settled from this symbol on


@pytest.fixture(scope="module")
def pure_decoders(decoders):
    """The decoders that read EST_SATURATION when they run, and take any int64
    numerator: all but the compiled one."""
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
    return [select_m(t, s) if raw else select_m(t, s, 1)
            for t, s in enumerate([0.0 if raw else 0, *sums[:-1]])]


def held_ms(runs):
    """Target m per symbol: each (m, length) of runs in turn."""
    return [m for m, length in runs for _ in range(length)]


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
    # window (quotients of one, two and three windows) inside the run
    rng = np.random.default_rng(m)
    n = 3 * WINDOW // (m.bit_length() + 2)
    values = geometric(rng, n, m)
    for at, q in ((n // 5, WINDOW + 3), (n // 2, 3 * WINDOW), (n // 2 + 1, WINDOW - 1)):
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


def test_numerators_past_the_vector_unmap(pure_decoders):
    # _pure unmaps windows in int64, exact for |n| < 2**62; numerators from
    # there to the int64 limits (which the compiled loop refuses) are decoded
    # one symbol at a time, as before
    rng = np.random.default_rng(2)
    n = 2000
    values = geometric(rng, n, 3)
    pred_n = rng.integers(-1000, 1000, n)
    # odd values unmap below a numerator, even ones above it: all in int64
    for at, big, value in ((100, 1 << 62, 8), (101, -(1 << 62), 3),
                           (700, (1 << 63) - 1, 5), (1500, -(1 << 63), 4)):
        pred_n[at], values[at] = big, value
    inc = np.full(n, 3.0)
    payload, _ = _pure.adaptive_encode(values, inc, True, 1)
    xs = ints([qmap.unmap(int(v), int(p), 1) for v, p in zip(values, pred_n)])
    assert agree_exactly(pure_decoders, payload, n, pred_n, xs - inc, 1, True,
                         -(1 << 63), (1 << 63) - 1) == ("ok", xs.tobytes())


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
