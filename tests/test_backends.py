"""Compiled kernels agree bit for bit with the pure-Python reference.

The ``kernels`` fixture (conftest.py) builds the shipped ``_kernels.c``
once per run.
"""

import json
import math
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frgc import _backend, _estcore, _pure, codec
from frgc._estcore import select_m
from frgc.bitcoder import (
    M_MAX,
    MAX_RUN,
    TAU_MAX,
    CorruptStreamError,
    GolombParam,
)
from frgc.codec import (
    HeaderError,
    StreamHeader,
    decode_stream,
    encode_stream,
)
from frgc.predictor import LpcConfig
from frgc.qmap import SYMBOL_MAX, SYMBOL_MIN

import scalarfold
from bitsink import BitSink
from container import leb128, payload_of, payload_span, reseal
from golden import (
    EXTERNAL_GOLDEN,
    STEERED_GOLDEN,
    external_streams,
    normalised_digest,
    steered_streams,
)
from mtable import table_m, tied_sum, ulps_around
from steer import held_schedule, m_runs, steered_symbols

BOUNDS = _estcore.LOG_BOUNDARIES
RANGE = (SYMBOL_MIN, SYMBOL_MAX)  # the decoded symbols' range with no alphabet
WIDEST = (-(1 << 63), (1 << 63) - 1)
ENTRY_POINTS = ("golomb_encode", "golomb_decode", "adaptive_encode", "adaptive_decode")


def use_backend(monkeypatch, module):
    """Route the codec's backend calls to module's four loops."""
    for name in ENTRY_POINTS:
        monkeypatch.setattr(_backend, name, getattr(module, name))


def same_outcome(pair, *args):
    """Call both functions of pair; their results, or exception types, agree."""
    outcomes = []
    for backend in pair:
        try:
            outcomes.append(("ok", backend(*args)))
        except Exception as exc:  # noqa: BLE001 - the type is what is compared
            outcomes.append(("raised", type(exc)))
    assert outcomes[0] == outcomes[1]
    return outcomes[0]


def both(kernels, name):
    return getattr(_pure, name), getattr(kernels, name)


def ints(values):
    return np.array(values, dtype=np.int64)


def decoded(out):
    """The int64 values a decoder's output buffer holds."""
    return np.frombuffer(out, np.int64).tolist()


def random_streams():
    rng = np.random.default_rng(101)
    cases = []
    for n in (0, 1, 7, 300, 5000):
        cases.append(rng.integers(0, 4000, size=n))
    cases.append(np.zeros(256, np.int64))
    cases.append(np.full(64, 4095))
    return cases


@pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 21, 64, 1000])
def test_golomb_encode_parity(m, kernels):
    for ms in random_streams():
        pure_payload, pure_bits = _pure.golomb_encode(ms, m)
        fast_payload, fast_bits = kernels.golomb_encode(ms, m)
        assert pure_payload == fast_payload
        assert pure_bits == fast_bits


@pytest.mark.parametrize("m", [1, 3, 8, 64])
def test_golomb_decode_parity(m, kernels):
    for ms in random_streams():
        payload, _ = _pure.golomb_encode(ms, m)
        a = _pure.golomb_decode(payload, len(ms), m)
        b = kernels.golomb_decode(payload, len(ms), m)
        assert a == b
        assert decoded(a) == ms.tolist()


def adaptive_case(n, tau, seed, spread):
    rng = np.random.default_rng(seed)
    xs = rng.integers(-2000, 2000, size=n)
    pred_x = xs + rng.normal(0.0, spread, size=n)
    pred_n = np.floor(tau * pred_x + 0.5).astype(np.int64)
    r = tau * xs - pred_n
    two_r = 2 * r
    ms = np.where(r >= 0, two_r // tau, -(two_r // tau) - 1)
    est_int = np.abs(r)
    est_raw = np.abs(xs - pred_x)
    return xs, pred_n, pred_x, ms, est_int, est_raw


@pytest.mark.parametrize("tau,spread", [(1, 0.6), (16, 3.0), (64, 40.0)])
def test_adaptive_encode_parity(tau, spread, kernels):
    _, _, _, ms, est_int, est_raw = adaptive_case(3000, tau, 7, spread)
    for raw in (False, True):
        args = (ms, est_raw if raw else est_int, raw, tau)
        assert _pure.adaptive_encode(*args) == kernels.adaptive_encode(*args)


@pytest.mark.parametrize("tau,spread", [(1, 0.6), (16, 3.0), (64, 40.0)])
def test_adaptive_decode_parity(tau, spread, kernels):
    xs, pred_n, pred_x, ms, est_int, est_raw = adaptive_case(2500, tau, 13, spread)
    for raw in (False, True):
        payload, _ = _pure.adaptive_encode(ms, est_raw if raw else est_int, raw,
                                           tau)
        args = (payload, len(ms), pred_n, pred_x, tau, raw, *RANGE)
        p_out = _pure.adaptive_decode(*args)
        assert p_out == kernels.adaptive_decode(*args)
        assert decoded(p_out) == xs.tolist()


def test_decode_corruption_parity(kernels):
    payload, _ = _pure.golomb_encode(ints([3, 1, 4]), 2)
    for backend in (_pure, kernels):
        with pytest.raises(CorruptStreamError):
            backend.golomb_decode(payload[:1], 3, 2)
        with pytest.raises(CorruptStreamError):
            backend.golomb_decode(b"\xff" * 512, 1, 1)


LPC = LpcConfig(order=2, window=16, refit_interval=16)
STREAM_HEADERS = {
    "fixed": StreamHeader(mode="fixed", rho=1, tau=16, m=5),
    "rice": StreamHeader(mode="rice", rho=1, tau=1, m=2),
    "adaptive": StreamHeader(mode="adaptive", rho=1, tau=16),
    "adaptive+raw": StreamHeader(mode="adaptive", rho=3, tau=16,
                                 raw_error_estimator=True),
    "lpc": StreamHeader(mode="adaptive", rho=1, tau=8, lpc=LPC),
    "lpc+raw": StreamHeader(mode="adaptive", rho=1, tau=8, lpc=LPC,
                            raw_error_estimator=True),
    "lpc+fixed": StreamHeader(mode="fixed", rho=1, tau=8, m=24, lpc=LPC),
}


@pytest.mark.parametrize("mode", sorted(STREAM_HEADERS))
def test_codec_streams_match_across_backends(mode, kernels, monkeypatch):
    header = STREAM_HEADERS[mode]
    rng = np.random.default_rng(5)
    xs = np.cumsum(rng.integers(-40, 41, size=1500))
    preds = None if header.lpc else xs + rng.laplace(0.0, 6.0, size=xs.size)
    results = []
    for module in (_pure, kernels):
        use_backend(monkeypatch, module)
        data, trace = encode_stream(xs, header, predictions=preds, collect_trace=True)
        assert decode_stream(data, predictions=preds) == xs.tolist()
        results.append((data, trace))
    assert results[0] == results[1]


def test_denormal_predictions_round_trip_on_both_backends(kernels, monkeypatch):
    # raw sums of 5e-324 steps overflow every quotient to -inf, which is
    # m = 1 and no RuntimeWarning; both backends code the stream alike
    xs = np.zeros(2000, np.int64)
    preds = np.resize([5e-324, -5e-324], xs.size)
    header = StreamHeader("adaptive", tau=16, raw_error_estimator=True)
    results = []
    for module in (_pure, kernels):
        use_backend(monkeypatch, module)
        data, trace = encode_stream(xs, header, preds, collect_trace=True)
        assert decode_stream(data, preds) == xs.tolist()
        results.append((data, trace))
    assert results[0] == results[1]
    assert {m for m, _, _ in results[0][1]} == {1}


def mutation_stream(mode):
    """A 400-symbol stream of STREAM_HEADERS[mode] and its predictions."""
    header = STREAM_HEADERS[mode]
    rng = np.random.default_rng(17)
    xs = np.cumsum(rng.integers(-40, 41, size=400))
    preds = None if header.lpc else xs + rng.laplace(0.0, 6.0, size=xs.size)
    return encode_stream(xs, header, predictions=preds), preds


MUTATION_STREAMS = {mode: mutation_stream(mode) for mode in STREAM_HEADERS}


def mutations(data):
    """1-3 payload bit flips, or a new value for one header byte.

    The lpc order, window and refit interval, the fields before the count
    and the payload length, are left alone: a large order or window, or a
    short refit interval, makes an lpc decode's time unbounded by the
    stream's length (ROADMAP item 12)."""
    header, count, _ = codec.read_container(data)
    start, end = payload_span(data)
    nbits = 8 * (end - start)
    lpc_end = start - len(leb128(end - start)) - len(leb128(count))
    lpc = header.lpc
    lpc_bytes = sum(len(leb128(v)) for v in (lpc.order, lpc.window, lpc.refit_interval)) \
        if lpc else 0
    offsets = [i for i in range(start) if not lpc_end - lpc_bytes <= i < lpc_end]
    flips = st.lists(st.integers(0, nbits - 1), min_size=1, max_size=3, unique=True).map(
        lambda bits: [(start + bit // 8, 0x80 >> bit % 8) for bit in bits])
    header_byte = st.tuples(st.sampled_from(offsets), st.integers(1, 255)).map(lambda f: [f])
    return st.one_of(flips, header_byte)


@pytest.mark.parametrize("mode", sorted(STREAM_HEADERS))
@given(edit=st.data())
@settings(max_examples=300, deadline=None)
def test_mutated_streams_decode_alike_on_both_backends(mode, edit, kernels):
    # the same symbols, or the same HeaderError or CorruptStreamError
    # with the same message, from either backend; the mutated stream is
    # resealed, so that the decoders' own checks see it
    data, preds = MUTATION_STREAMS[mode]
    mutated = bytearray(data)
    for i, bits in edit.draw(mutations(data)):
        mutated[i] ^= bits
    mutated = reseal(bytes(mutated))
    outcomes = []
    for module in (_pure, kernels):
        with pytest.MonkeyPatch.context() as patch:
            use_backend(patch, module)
            try:
                outcomes.append(("ok", decode_stream(mutated, preds)))
            except (HeaderError, CorruptStreamError) as exc:
                outcomes.append(("raised", type(exc), str(exc)))
    assert outcomes[0] == outcomes[1]


def test_streams_match_their_golden_digests(kernels, monkeypatch):
    # the pinned streams of every mode but lpc, and the steered adaptive
    # ones (tests/golden.py): each backend writes every stream's recorded
    # bytes and decodes it back
    want = json.loads(EXTERNAL_GOLDEN.read_text()) | json.loads(STEERED_GOLDEN.read_text())
    pool = external_streams() | {name: (xs, None, header)
                                 for name, (xs, _, header) in steered_streams().items()}
    assert sorted(want) == sorted(pool)
    for module in (_pure, kernels):
        use_backend(monkeypatch, module)
        for name, (xs, pred, header) in pool.items():
            data = encode_stream(xs, header, pred)
            assert normalised_digest(data) == want[name], (module.BACKEND_NAME, name)
            assert decode_stream(data, pred) == xs.tolist(), (module.BACKEND_NAME, name)


def test_steered_streams_take_every_m():
    # the steered pool holds each m from 1 to 64 for longer than the cold
    # start, steps down as well as up, and its traced m is the schedule
    runs, steps = [], []
    for name, (xs, ms, header) in steered_streams().items():
        _, trace = encode_stream(xs, header, collect_trace=True)
        assert [m for m, _, _ in trace] == ms, name
        held = m_runs(ms)
        runs += held
        steps += [b - a for (a, _), (b, _) in zip(held, held[1:])]
    assert {m for m, _ in runs} == set(range(1, _estcore.MAX_ADAPTIVE_M + 1))
    assert all(length > _pure.SETTLE_SYMBOLS for _, length in runs)
    assert min(steps) < 0 < max(steps)


@pytest.mark.parametrize("tau,raw,top", [(1, False, 8), (16, False, 64), (3, True, 24)])
def test_streams_whose_m_holds_65_to_300_symbols(tau, raw, top, kernels, monkeypatch):
    # every run of one m between switches lasts 65-300 symbols: longer
    # than the cold start, so each run ends inside a window parsed ahead
    ms = held_schedule(20_000, (65, 300), seed=tau, top=top)
    xs = steered_symbols(ms, tau=tau, raw=raw, seed=top)
    header = StreamHeader(mode="adaptive", rho=1, tau=tau, raw_error_estimator=raw)
    results = []
    for module in (_pure, kernels):
        use_backend(monkeypatch, module)
        data, trace = encode_stream(xs, header, collect_trace=True)
        assert decode_stream(data) == xs.tolist()
        results.append((data, trace))
    assert results[0] == results[1]
    traced = [m for m, _, _ in results[0][1]]
    assert traced == ms
    runs = m_runs(traced)
    assert len(runs) > 60
    assert all(65 <= length <= 300 for _, length in runs[1:-1])


@pytest.mark.parametrize("mode", ["fixed", "adaptive+raw"])
def test_strided_inputs_round_trip(mode, kernels, monkeypatch):
    # the backends read C-contiguous buffers only; the codec makes them so
    header = STREAM_HEADERS[mode]
    rng = np.random.default_rng(9)
    xs = np.repeat(np.cumsum(rng.integers(-40, 41, size=700)), 2)[::2]
    preds = np.repeat(xs + rng.laplace(0.0, 6.0, size=xs.size), 2)[::2]
    for module in (_pure, kernels):
        use_backend(monkeypatch, module)
        data = encode_stream(xs, header, predictions=preds)
        assert decode_stream(data, predictions=preds) == xs.tolist()


@pytest.mark.parametrize("mode,xs", [("fixed", [1 << 21]), ("adaptive", [1 << 21, 0])])
def test_encoder_rejects_what_the_decoder_would(mode, xs, kernels, monkeypatch):
    # a quotient above MAX_RUN used to encode into a stream that
    # decode_stream then refused with "unary run exceeds 1048576 bits"
    header = StreamHeader(mode=mode, rho=1, tau=1, m=1 if mode == "fixed" else 0)
    for module in (_pure, kernels):
        use_backend(monkeypatch, module)
        with pytest.raises(ValueError, match="unary limit"):
            encode_stream(xs, header, predictions=[0.0] * len(xs))


def test_encode_max_run_parity(kernels):
    # a quotient of exactly MAX_RUN codes and decodes; one more raises
    enc, aenc = both(kernels, "golomb_encode"), both(kernels, "adaptive_encode")
    for m in (1, 3):
        top = MAX_RUN * m + m - 1
        ok, (payload, _) = same_outcome(enc, ints([top, 0]), m)
        assert ok == "ok"
        assert same_outcome(both(kernels, "golomb_decode"), payload, 2,
                            m) == ("ok", ints([top, 0]).tobytes())
        assert same_outcome(enc, ints([0, top + 1]), m) == ("raised", ValueError)
    # adaptive mode starts cold at m = 1, so the first quotient is the value
    one = ints([1, 1])
    assert same_outcome(aenc, ints([MAX_RUN, 0]), one, False, 1)[0] == "ok"
    assert same_outcome(aenc, ints([MAX_RUN + 1, 0]), one, False,
                        1) == ("raised", ValueError)


def test_m_and_tau_limit_parity(kernels):
    # m outside [1, M_MAX] and tau outside [1, TAU_MAX], bitcoder's limits,
    # raise the same ValueError from both backends, on encode and on decode
    # (any int: 2**63 and beyond raise the same ValueError, not OverflowError)
    calls = []
    past_64_bits = (1 << 63, 1 << 64, -(1 << 63) - 1)
    for m in (0, M_MAX + 1, *past_64_bits):
        message = rf"^golomb parameter must be in \[1, {M_MAX}\], got {m}$"
        calls += [(message, "golomb_encode", (ints([1]), m)),
                  (message, "golomb_decode", (b"\x00", 1, m))]
    for tau in (0, -1, TAU_MAX + 1, *past_64_bits):
        message = rf"^tau must be in \[1, {TAU_MAX}\], got {tau}$"
        for raw in (False, True):
            inc = np.ones(1) if raw else ints([1])
            calls += [(message, "adaptive_encode", (ints([1]), inc, raw, tau)),
                      (message, "adaptive_decode",
                       (b"\x00", 1, ints([0]), np.zeros(1), tau, raw, *RANGE))]
    for message, name, args in calls:
        for backend in (_pure, kernels):
            with pytest.raises(ValueError, match=message):
                getattr(backend, name)(*args)
    # the limits themselves are legal
    value = ints([3 * M_MAX - 1])
    ok, (payload, _) = same_outcome(both(kernels, "golomb_encode"), value, M_MAX)
    assert ok == "ok"
    assert same_outcome(both(kernels, "golomb_decode"), payload, 1,
                        M_MAX) == ("ok", value.tobytes())
    ok, (payload, _) = same_outcome(both(kernels, "adaptive_encode"), value, ints([1]),
                                    False, TAU_MAX)
    assert ok == "ok"
    assert same_outcome(both(kernels, "adaptive_decode"), payload, 1, ints([0]),
                        np.zeros(1), TAU_MAX, False, *WIDEST)[0] == "ok"


def test_error_path_parity(kernels):
    enc, dec = both(kernels, "golomb_encode"), both(kernels, "golomb_decode")
    aenc, adec = both(kernels, "adaptive_encode"), both(kernels, "adaptive_decode")
    raised = ("raised", ValueError)
    # a negative mapped residual
    assert same_outcome(enc, ints([4, -1]), 3) == raised
    assert same_outcome(aenc, ints([4, -1]), ints([1, 1]), False, 16) == raised
    # m < 1
    for m in (0, -3):
        assert same_outcome(enc, ints([1, 2]), m) == raised
        assert same_outcome(dec, b"\x00", 1, m) == raised
    # empty input
    empty, no_floats = ints([]), np.zeros(0)
    assert same_outcome(enc, empty, 5)[0] == "ok"
    assert same_outcome(dec, b"", 0, 5) == ("ok", b"")
    for raw in (False, True):
        assert same_outcome(aenc, empty, no_floats if raw else empty, raw,
                            16) == ("ok", (b"", 0))
        assert same_outcome(adec, b"", 0, empty, no_floats, 16, raw,
                            *RANGE) == ("ok", b"")


def test_short_buffer_parity(kernels):
    # a buffer one value short of len(ms) or count, or not a whole number of
    # values, raises ValueError before either backend reads it; a list is no
    # buffer at all
    xs, pred_n, pred_x, ms, est_int, est_raw = adaptive_case(400, 16, 3, 3.0)
    aenc, adec = both(kernels, "adaptive_encode"), both(kernels, "adaptive_decode")
    raised = ("raised", ValueError)
    ragged = ms.tobytes()[:-1]
    assert same_outcome(both(kernels, "golomb_encode"), ragged, 7) == raised
    for raw, inc in ((False, est_int), (True, est_raw)):
        assert same_outcome(aenc, ms, inc[:-1], raw, 16) == raised
        assert same_outcome(aenc, ms, inc.tobytes()[:-1], raw, 16) == raised
        payload, _ = _pure.adaptive_encode(ms, inc, raw, 16)
        args = (payload, len(ms), pred_n, pred_x, 16, raw, *RANGE)
        assert decoded(same_outcome(adec, *args)[1]) == xs.tolist()
        assert same_outcome(adec, *args[:2], pred_n[:-1], *args[3:]) == raised
        assert same_outcome(adec, *args[:3], pred_x[:-1], *args[4:]) == raised
    assert same_outcome(aenc, ms.tolist(), est_int, False, 16) == ("raised", TypeError)


@pytest.mark.parametrize("bad", [0, 150, 299])
def test_adaptive_decode_range_check_parity(bad, kernels, monkeypatch):
    # one symbol (first, middle or last) outside [lo, hi] raises, naming its
    # index, on both backends
    rng = np.random.default_rng(bad)
    xs = rng.integers(0, 200, size=300)
    xs[bad] = 1100
    pred_x = xs + rng.normal(0.0, 3.0, size=300)
    pred_n = np.floor(16 * pred_x + 0.5).astype(np.int64)
    r = 16 * xs - pred_n
    ms = np.where(r >= 0, 2 * r // 16, -(2 * r // 16) - 1)
    payload, _ = _pure.adaptive_encode(ms, np.abs(r), False, 16)
    args = (payload, 300, pred_n, pred_x, 16, False)
    for backend in (_pure, kernels):
        assert decoded(backend.adaptive_decode(*args, 0, 1100)) == xs.tolist()
        with pytest.raises(CorruptStreamError) as info:
            backend.adaptive_decode(*args, 0, 999)
        assert str(info.value) == f"symbol {bad} decodes to 1100, outside [0, 999]"
    # through decode_stream: a header whose alphabet leaves that symbol out
    header = StreamHeader(mode="adaptive", rho=1, tau=16)
    data = encode_stream(xs, header, predictions=pred_x)
    narrow = codec.write_container(replace(header, alphabet_q=1000), payload_of(data), 300)
    for backend in (_pure, kernels):
        use_backend(monkeypatch, backend)
        assert decode_stream(data, predictions=pred_x) == xs.tolist()
        with pytest.raises(CorruptStreamError,
                           match=rf"^symbol {bad} decodes to 1100, outside \[0, 999\]$"):
            decode_stream(narrow, predictions=pred_x)


def test_truncated_adaptive_payload_parity(kernels):
    xs, pred_n, pred_x, ms, est_int, _ = adaptive_case(300, 16, 21, 20.0)
    payload, _ = _pure.adaptive_encode(ms, est_int, False, 16)
    decode = both(kernels, "adaptive_decode")
    for cut in range(len(payload)):
        outcome = same_outcome(decode, payload[:cut], len(ms), pred_n, pred_x, 16,
                               False, *RANGE)
        assert outcome == ("raised", CorruptStreamError)
    assert same_outcome(decode, payload, len(ms), pred_n, pred_x, 16,
                        False, *RANGE) == ("ok", xs.tobytes())


@pytest.mark.parametrize("tau", [1, 7, TAU_MAX])
def test_unmap_parity_at_numerator_limit(tau, kernels):
    # arbitrary codewords against numerators near +-(2**62 - 1): the unmap
    # and the estimator stay exact in the compiled loop
    rng = np.random.default_rng(tau)
    payload = rng.integers(0, 256, size=4000, dtype=np.uint8).tobytes()
    lim = (1 << 62) - 1
    pred_n = rng.choice(ints([lim, -lim, lim - 12345, 1 - lim, 0]), 600)
    args = (payload, 600, pred_n, np.zeros(600), tau, False, *WIDEST)
    assert same_outcome(both(kernels, "adaptive_decode"), *args)[0] == "ok"


def test_compiled_range_guards(kernels):
    # the largest mapped value the limits allow, quotient MAX_RUN under
    # m = M_MAX, decodes exactly; so does a symbol of quotient MAX_RUN at
    # tau = TAU_MAX against numerators at +-(2**62 - 1)
    top = (MAX_RUN + 1) * M_MAX - 1
    payload, _ = _pure.golomb_encode(ints([top]), M_MAX)
    assert same_outcome(both(kernels, "golomb_decode"), payload, 1,
                        M_MAX) == ("ok", ints([top]).tobytes())
    payload, _ = _pure.golomb_encode(ints([MAX_RUN]), 1)
    lim = (1 << 62) - 1
    for n in (lim, -lim):
        assert same_outcome(both(kernels, "adaptive_decode"), payload, 1, ints([n]),
                            np.zeros(1), TAU_MAX, False, *WIDEST)[0] == "ok"
    # inputs outside what the 64-bit loops can hold exactly raise, not wrap
    with pytest.raises(ValueError):
        kernels.adaptive_decode(b"\x00", 1, ints([1 << 62]), np.zeros(1), 1, False,
                                *WIDEST)


def test_backend_module_exports():
    assert _backend.BACKEND_NAME in ("pure", "compiled")
    for name in ENTRY_POINTS:
        assert callable(getattr(_backend, name))


def import_kernels(kernels, before, after=()):
    """What a new process prints that runs the lines before, imports
    frgc._kernels as kernels, and then runs the lines after.

    The built package is loaded without its __init__, so the lines before
    can change the constants the module copies when it is imported.
    """
    script = "\n".join([
        "import sys, types",
        "pkg = types.ModuleType('frgc')",
        f"pkg.__path__ = [{str(Path(kernels.__file__).parent)!r}]",
        "sys.modules['frgc'] = pkg",
        *before,
        "try:",
        "    import frgc._kernels as kernels",
        "except ImportError as exc:",
        "    print('refused:', exc)",
        "    sys.exit()",
        *after,
    ])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_estimator_constants_shared(kernels):
    # the compiled kernels read the saturation point, the table, the
    # guess's constants and the stream limits from here
    assert _estcore.EST_SATURATION == 1 << 62
    assert _estcore.MAX_ADAPTIVE_M == 64
    assert len(BOUNDS) == 64
    assert BOUNDS[0] == float.fromhex("-0x1.ecc2caec51608p-1")
    assert BOUNDS[-1] == float.fromhex("-0x1.6025c8c56db20p-6")
    assert _estcore.GUESS_C == 2 * math.log(2)
    assert (_estcore.GUESS_LO, _estcore.GUESS_HI) == (-2.0, -0.0215)
    assert _estcore.BOUNDS == (-math.inf, *BOUNDS[:-1], math.inf)
    assert (MAX_RUN, M_MAX, TAU_MAX) == (1 << 20, 0xFFFF, 0xFFFF)
    # the module enforces whatever limits bitcoder holds when it is imported
    probes = [
        ("golomb_encode", "one * 122, 3"),  # quotient 40
        ("golomb_encode", "one * 123, 3"),
        ("golomb_decode", r"b'\xff' * 5 + b'\x7f', 1, 1"),  # a run of 40 ones
        ("golomb_decode", r"b'\xff' * 5 + b'\xbf', 1, 1"),  # and of 41
        ("golomb_encode", "one, 100"),
        ("golomb_encode", "one, 101"),
        ("adaptive_encode", "one, one, False, 50"),
        ("adaptive_encode", "one, one, False, 51"),
    ]
    out = import_kernels(kernels, [
        "import numpy as np",
        "import frgc.bitcoder as b",
        "b.MAX_RUN, b.M_MAX, b.TAU_MAX = 40, 100, 50",
        "one = np.ones(1, np.int64)",
        "def outcome(f, *args):",
        "    try:",
        "        f(*args)",
        "    except ValueError as exc:",
        "        return str(exc)",
        "    return 'ok'",
    ], [f"print(outcome(kernels.{name}, {args}))" for name, args in probes])
    assert out.splitlines() == [
        "ok", "quotient 41 exceeds the 40-bit unary limit",
        "ok", "unary run exceeds 40 bits",
        "ok", "golomb parameter must be in [1, 100], got 101",
        "ok", "tau must be in [1, 50], got 51",
    ]


@pytest.mark.parametrize("limits,refused", [
    ((2**20 - 1, 2**32, 2**10), False),  # (MAX_RUN + 1) * M_MAX * TAU_MAX = 2**62
    ((2**20, 2**32, 2**10), True),       # one more run bit
    ((0, 2**32 + 1, 1), True),           # a remainder longer than 32 bits
    ((-1, 1, 1), True),
    ((1, 0, 1), True),
    ((1, 1, 0), True),
])
def test_compiled_import_checks_the_stream_limits(limits, refused, kernels):
    # the 64-bit decode arithmetic is exact within the limits; the module
    # checks that once, at import, instead of on every call
    out = import_kernels(kernels, ["import frgc.bitcoder as b",
                                   f"b.MAX_RUN, b.M_MAX, b.TAU_MAX = {limits}"],
                         ["print('imported')"])
    assert out == ("refused: stream limits do not fit the 64-bit loops: MAX_RUN={}, "
                   "M_MAX={}, TAU_MAX={}\n".format(*limits) if refused else "imported\n")


@pytest.mark.parametrize("size", [63, 65])
def test_compiled_import_needs_the_64_entry_table(size, kernels):
    # the module copies _estcore.LOG_BOUNDARIES once, at import; cut it first
    out = import_kernels(kernels, [
        "import frgc._estcore as e",
        f"e.LOG_BOUNDARIES = (e.LOG_BOUNDARIES * 2)[:{size}]",
    ])
    assert out == f"refused: LOG_BOUNDARIES must have 64 entries, got {size}\n"


@pytest.mark.parametrize("name,value,refused", [
    ("GUESS_HI", "-0.0216", False),       # guesses 64 at most, as -0.0215 does
    ("GUESS_C", "2 * e.GUESS_C", True),   # guesses past 64 at the top of the clamp
    ("GUESS_HI", "-0.02", True),          # the same
    ("GUESS_LO", "-10.0", True),          # a guess of 0 at the bottom
    ("GUESS_HI", "-0.0", True),
    ("GUESS_LO", "float('nan')", True),
])
def test_compiled_import_needs_guess_constants_that_keep_m_in_range(name, value, refused,
                                                                    kernels):
    # the module reads the closed form's constants once, at import, and
    # indexes its table with the guess they give: it refuses any that
    # could guess outside [1, 64]
    out = import_kernels(kernels, ["import frgc._estcore as e", f"e.{name} = {value}"],
                         ["print('imported')"])
    assert out == ("refused: GUESS_C, GUESS_LO and GUESS_HI must keep the guess of m in "
                   "[1, 64]\n" if refused else "imported\n")


def coded(values, ms):
    """The payload and bit count of values, the i-th coded under ms[i]."""
    sink = BitSink()
    for value, m in zip(values, ms):
        sink.write_unary(value // m)
        sink.write_minimal_binary(value % m, GolombParam(m))
    return sink.finish(), sink.bit_length


def test_saturation_and_boundary_parity(kernels):
    # the m each loop picks shows in its payload and in what it decodes:
    # a last mapped value k codes as quotient 1 under m = k and as
    # quotient 0 under m = k + 1, so one step off at a boundary changes both
    sat = _estcore.EST_SATURATION
    args = (ints([3, 3, 3, 64]), ints([sat - 1, 1000, 1000, 7]), False, 16)
    for backend in (_pure, kernels):
        assert backend.adaptive_encode(*args) == coded([3, 3, 3, 64], [1, 64, 64, 64])
    # raw sums s with ln theta = -1/s exactly on the k-th log-boundary: m = k
    hits = 0
    for k, lb in enumerate(BOUNDS, start=1):
        s = -1.0 / lb
        near = [s]
        for toward in (math.inf, 0.0):
            x = s
            for _ in range(4):
                x = math.nextafter(x, toward)
                near.append(x)
        for s in [x for x in near if -1.0 / x == lb][:1]:
            hits += 1
            # the sum s after one symbol; and 2s after one, then two symbols,
            # so ln theta = -1/(2s) reaches -2/(2s) = -1/s from above.  Each
            # decoder adds |0 - pred_x| = |0 - (-inc)|, the same sums
            for inc in (np.array([s, 0.0]), np.array([2 * s, 0.0, 0.0])):
                n = inc.size
                ms = [table_m(t, float(inc[:t].sum())) for t in range(n)]
                assert ms[-1] == k
                values = [0] * (n - 1) + [k]
                payload, _ = expected = coded(values, ms)
                for backend in (_pure, kernels):
                    assert backend.adaptive_encode(ints(values), inc, True, 1) == expected
                    out = backend.adaptive_decode(payload, n, ints([0] * n), -inc, 1,
                                                  True, *RANGE)
                    assert decoded(out) == [scalarfold.unmap(v, 0, 1) for v in values]
    assert hits >= 32


# Where the closed-form guess ceil(-C / lt - 1/2) steps from j to j + 1,
# lt = -C / (j + 1/2), and two floats on each side; the ends of its clamp;
# and -inf and -0.0, which the clamp takes to its ends
JUMP_QUOTIENTS = [x for j in range(1, _estcore.MAX_ADAPTIVE_M)
                  for x in ulps_around(-_estcore.GUESS_C / (j + 0.5), 2)] + [
    _estcore.GUESS_LO, _estcore.GUESS_HI, -math.inf, -0.0]


def raw_sum_for(x):
    """(t, s): a count t and a raw sum s with -float(t) / s exactly x."""
    if x == -math.inf:
        return 2, 5e-324  # the quotient overflows
    if x == 0:
        return 2, math.inf  # two of the largest finite increments overflow it
    return tied_sum(x)


def test_every_chooser_at_the_guess_jump_points(kernels):
    # each chooser takes the closed-form guess and one compare: the scalar
    # and the array form, and the compiled loops, reached through a raw
    # sum s after t symbols.  The symbols before carry no increment, so
    # m is 1 until symbol t, whose value k codes under the m that (t, s)
    # gives; the encoders must write the payload of table_m's m and the
    # decoders read it back.  A raw increment is finite, so an infinite s
    # is the sum of two of the largest, and the symbol between them codes
    # under the m of the first alone
    pairs = [raw_sum_for(x) for x in JUMP_QUOTIENTS]
    expect = [table_m(t, s) for t, s in pairs]
    assert [select_m(t, s) for t, s in pairs] == expect
    t, s = np.array(pairs).T
    assert _estcore.select_m_array(t.astype(np.int64), s).tolist() == expect
    assert set(expect) == set(range(1, _estcore.MAX_ADAPTIVE_M + 1))
    for (t, s), k in zip(pairs, expect):
        inc = np.zeros(t + 1)
        if math.isinf(s):
            inc[t - 2:t] = sys.float_info.max
        else:
            inc[t - 1] = s
        before = [0.0]
        for v in inc[:-1].tolist():
            before.append(before[-1] + v)
        ms = [table_m(i, b) for i, b in enumerate(before)]
        assert ms[-1] == k and before[-1] == s
        values = [0] * t + [k]
        payload, _ = want = coded(values, ms)
        for backend in (_pure, kernels):
            assert backend.adaptive_encode(ints(values), inc, True, 1) == want, (t, s)
            out = backend.adaptive_decode(payload, t + 1, ints([0] * (t + 1)), -inc, 1,
                                          True, *RANGE)
            assert decoded(out) == [scalarfold.unmap(v, 0, 1) for v in values], (t, s)
