"""The whole-array pure coder against the per-symbol loops it replaced.

``oracle_*`` below are the per-symbol loops frgc._pure ran before it
coded whole arrays: one codeword at a time through bitcoder.BitSink and
BitSource, on Python ints.  The numpy coder must agree with them bit for
bit, in its results and in the type of every error, and so must the
compiled kernels where they build.
"""

import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frgc import _estcore, _pure
from frgc.bitcoder import (
    M_MAX,
    MAX_RUN,
    BitSink,
    BitSource,
    CorruptStreamError,
    GolombParam,
)
from frgc._estcore import select_m, select_m_array

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
        s = s + inc if raw else min(s + inc, SAT)
        sums.append(s)
    return sums


def oracle_adaptive_encode(ms, increments, raw, tau):
    sums = oracle_sums(increments, raw)
    before = [0.0 if raw else 0] + sums[:-1]
    params = [GolombParam(select_m(t, s) if raw else select_m(t, s, tau))
              for t, s in enumerate(before)]
    return oracle_write(ms.tolist(), params)


ORACLE = SimpleNamespace(golomb_encode=oracle_golomb_encode,
                         golomb_decode=oracle_golomb_decode,
                         adaptive_encode=oracle_adaptive_encode)


@pytest.fixture(scope="module")
def coders(request):
    """The oracle, the numpy coder and the compiled kernels unless they cannot build."""
    found = [ORACLE, _pure]
    try:
        found.append(request.getfixturevalue("kernels"))
    except pytest.skip.Exception:
        pass
    return found


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
