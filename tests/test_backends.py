"""Compiled kernels agree bit for bit with the pure-Python reference.

The shipped ``_kernels.c`` is built once per run by ``setup.py build_ext``
in a temporary copy of the project, so the compile flags come from
``setup.py`` alone; the build must print no compiler warning under
``-Wall -Wextra``.  The tests skip only where there is no C compiler or
no ``Python.h``.
"""

import importlib.util
import math
import os
import shlex
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import numpy as np
import pytest

from frgc import _backend, _estcore, _pure, codec
from frgc.bitcoder import CorruptStreamError
from frgc.codec import StreamHeader, decode_stream, encode_stream
from frgc.predictor import LpcConfig

BOUNDS = _estcore.LOG_BOUNDARIES
MAX_RUN = 1 << 20
ROOT = Path(__file__).resolve().parents[1]
ENTRY_POINTS = ("golomb_encode", "golomb_decode", "adaptive_encode", "adaptive_decode")


@pytest.fixture(scope="module")
def kernels(tmp_path_factory):
    """frgc._kernels as setup.py builds it from the shipped _kernels.c."""
    cc = sysconfig.get_config_var("CC")
    include = sysconfig.get_paths()["include"]
    if not cc or shutil.which(shlex.split(cc)[0]) is None:
        pytest.skip("no C compiler")
    if not (Path(include) / "Python.h").exists():
        pytest.skip("no Python.h")
    root = tmp_path_factory.mktemp("build")
    for name in ("setup.py", "pyproject.toml", "README.md"):
        shutil.copy(ROOT / name, root)
    pkg = root / "src" / "frgc"
    shutil.copytree(ROOT / "src" / "frgc", pkg, ignore=shutil.ignore_patterns(
        "__pycache__", "*.so", "*.pyd"))
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--inplace"], cwd=root,
        env=dict(os.environ, CFLAGS="-Wall -Wextra"), capture_output=True, text=True)
    log = proc.stdout + proc.stderr
    assert proc.returncode == 0, log
    assert "warning:" not in log, log
    built = list(pkg.glob("_kernels*" + sysconfig.get_config_var("EXT_SUFFIX")))
    assert len(built) == 1, log
    spec = importlib.util.spec_from_file_location("frgc._kernels", built[0])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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


def random_streams():
    rng = np.random.default_rng(101)
    cases = []
    for n in (0, 1, 7, 300, 5000):
        cases.append(rng.integers(0, 4000, size=n).tolist())
    cases.append([0] * 256)
    cases.append([4095] * 64)
    return cases


@pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 21, 64, 1000])
def test_golomb_encode_parity(m, kernels):
    for ms in random_streams():
        pure_payload, pure_bits = _pure.golomb_encode(ms, m, MAX_RUN)
        fast_payload, fast_bits = kernels.golomb_encode(ms, m, MAX_RUN)
        assert pure_payload == fast_payload
        assert pure_bits == fast_bits


@pytest.mark.parametrize("m", [1, 3, 8, 64])
def test_golomb_decode_parity(m, kernels):
    for ms in random_streams():
        payload, _ = _pure.golomb_encode(ms, m, MAX_RUN)
        a = _pure.golomb_decode(payload, len(ms), m, MAX_RUN)
        b = kernels.golomb_decode(payload, len(ms), m, MAX_RUN)
        assert a == b == ms


def adaptive_case(n, tau, seed, spread):
    rng = np.random.default_rng(seed)
    xs = rng.integers(-2000, 2000, size=n)
    pred_x = xs + rng.normal(0.0, spread, size=n)
    scaled = np.floor(tau * pred_x + 0.5).astype(np.int64)
    pred_n = scaled.tolist()
    r = tau * xs - scaled
    two_r = 2 * r
    ms = np.where(r >= 0, two_r // tau, -(two_r // tau) - 1).astype(np.int64)
    est_int = np.abs(r).tolist()
    est_raw = np.abs(xs - pred_x).tolist()
    return xs.tolist(), pred_n, pred_x.tolist(), ms.tolist(), est_int, est_raw


@pytest.mark.parametrize("tau,spread", [(1, 0.6), (16, 3.0), (64, 40.0)])
def test_adaptive_encode_parity(tau, spread, kernels):
    _, _, _, ms, est_int, est_raw = adaptive_case(3000, tau, 7, spread)
    for raw in (False, True):
        args = (ms, None if raw else est_int, est_raw if raw else None, tau,
                MAX_RUN, True)
        p_payload, p_bits, p_trace = _pure.adaptive_encode(*args)
        k_payload, k_bits, k_trace = kernels.adaptive_encode(*args)
        assert p_payload == k_payload
        assert p_bits == k_bits
        assert p_trace == k_trace
        for a, b in zip(p_trace, k_trace):
            assert all(type(x) is type(y) for x, y in zip(a, b))


@pytest.mark.parametrize("tau,spread", [(1, 0.6), (16, 3.0), (64, 40.0)])
def test_adaptive_decode_parity(tau, spread, kernels):
    xs, pred_n, pred_x, ms, est_int, est_raw = adaptive_case(2500, tau, 13, spread)
    for raw in (False, True):
        payload, _, _ = _pure.adaptive_encode(
            ms, None if raw else est_int, est_raw if raw else None, tau,
            MAX_RUN, False)
        args = (payload, len(ms), pred_n, pred_x, tau, raw, MAX_RUN, True)
        p_out, p_trace = _pure.adaptive_decode(*args)
        k_out, k_trace = kernels.adaptive_decode(*args)
        assert p_out == k_out == xs
        assert p_trace == k_trace


def test_decode_corruption_parity(kernels):
    payload, _ = _pure.golomb_encode([3, 1, 4], 2, MAX_RUN)
    for backend in (_pure, kernels):
        with pytest.raises(CorruptStreamError):
            backend.golomb_decode(payload[:1], 3, 2, MAX_RUN)
        with pytest.raises(CorruptStreamError):
            backend.golomb_decode(b"\xff" * 512, 1, 1, 256)


STREAM_HEADERS = {
    "fixed": StreamHeader(mode="fixed", rho=1, tau=16, m=5),
    "rice": StreamHeader(mode="rice", rho=1, tau=1, m=2),
    "adaptive": StreamHeader(mode="adaptive", rho=1, tau=16),
    "adaptive+raw": StreamHeader(mode="adaptive", rho=3, tau=16,
                                 raw_error_estimator=True),
    "lpc": StreamHeader(mode="adaptive", rho=1, tau=8,
                        lpc=LpcConfig(order=2, window=16, refit_interval=16)),
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
        out, dtrace = decode_stream(data, predictions=preds, collect_trace=True)
        assert out == xs.tolist()
        results.append((data, trace, dtrace))
    assert results[0] == results[1]


@pytest.mark.parametrize("mode,xs", [("fixed", [1 << 21]), ("adaptive", [1 << 21, 0])])
def test_encoder_rejects_what_the_decoder_would(mode, xs, kernels, monkeypatch):
    # a quotient above DEFAULT_MAX_RUN used to encode into a stream that
    # decode_stream then refused with "unary run exceeds 1048576 bits"
    header = StreamHeader(mode=mode, rho=1, tau=1, m=1 if mode == "fixed" else 0)
    for module in (_pure, kernels):
        use_backend(monkeypatch, module)
        with pytest.raises(ValueError, match="unary limit"):
            encode_stream(xs, header, predictions=[0.0] * len(xs))


def test_encode_max_run_parity(kernels):
    # a quotient of exactly max_run codes and decodes; one more raises
    m, limit = 3, 40
    top = limit * m + m - 1
    enc, aenc = both(kernels, "golomb_encode"), both(kernels, "adaptive_encode")
    assert same_outcome(enc, [top, 0], m, limit)[0] == "ok"
    assert same_outcome(enc, [0, top + 1], m, limit) == ("raised", ValueError)
    # adaptive mode starts cold at m = 1, so the first quotient is the value
    assert same_outcome(aenc, [limit, 0], [1, 1], None, 1, limit, False)[0] == "ok"
    assert same_outcome(aenc, [limit + 1, 0], [1, 1], None, 1, limit,
                        False) == ("raised", ValueError)
    payload, _ = kernels.golomb_encode([top, 0], m, limit)
    assert same_outcome(both(kernels, "golomb_decode"), payload, 2, m,
                        limit) == ("ok", [top, 0])


def test_error_path_parity(kernels):
    enc, dec = both(kernels, "golomb_encode"), both(kernels, "golomb_decode")
    aenc, adec = both(kernels, "adaptive_encode"), both(kernels, "adaptive_decode")
    raised = ("raised", ValueError)
    # a negative mapped residual
    assert same_outcome(enc, [4, -1], 3, MAX_RUN) == raised
    assert same_outcome(aenc, [4, -1], [1, 1], None, 16, MAX_RUN, False) == raised
    # m < 1
    for m in (0, -3):
        assert same_outcome(enc, [1, 2], m, MAX_RUN) == raised
        assert same_outcome(dec, b"\x00", 1, m, MAX_RUN) == raised
    # empty input
    assert same_outcome(enc, [], 5, MAX_RUN)[0] == "ok"
    assert same_outcome(dec, b"", 0, 5, MAX_RUN) == ("ok", [])
    for raw in (False, True):
        est = ([], None) if not raw else (None, [])
        assert same_outcome(aenc, [], *est, 16, MAX_RUN, True)[0] == "ok"
        assert same_outcome(adec, b"", 0, [], [], 16, raw, MAX_RUN,
                            True) == ("ok", ([], []))


def test_sequence_type_parity(kernels):
    xs, pred_n, pred_x, ms, est_int, est_raw = adaptive_case(400, 16, 3, 3.0)
    payload, _, _ = _pure.adaptive_encode(ms, est_int, None, 16, MAX_RUN, False)
    for convert in (tuple, np.array):
        assert (_pure.golomb_encode(convert(ms), 7, MAX_RUN)
                == kernels.golomb_encode(convert(ms), 7, MAX_RUN)
                == _pure.golomb_encode(ms, 7, MAX_RUN))
        for raw in (False, True):
            args = (convert(ms), None if raw else convert(est_int),
                    convert(est_raw) if raw else None, 16, MAX_RUN, False)
            expect = _pure.adaptive_encode(ms, None if raw else est_int,
                                           est_raw if raw else None, 16,
                                           MAX_RUN, False)
            assert _pure.adaptive_encode(*args)[:2] == expect[:2]
            assert kernels.adaptive_encode(*args)[:2] == expect[:2]
        args = (payload, len(ms), convert(pred_n), convert(pred_x), 16,
                False, MAX_RUN, False)
        assert _pure.adaptive_decode(*args)[0] == kernels.adaptive_decode(*args)[0] == xs


def test_truncated_adaptive_payload_parity(kernels):
    xs, pred_n, pred_x, ms, est_int, _ = adaptive_case(300, 16, 21, 20.0)
    payload, _, _ = _pure.adaptive_encode(ms, est_int, None, 16, MAX_RUN, False)
    decode = both(kernels, "adaptive_decode")
    for cut in range(len(payload)):
        outcome = same_outcome(decode, payload[:cut], len(ms), pred_n, pred_x, 16,
                               False, MAX_RUN, False)
        assert outcome == ("raised", CorruptStreamError)
    assert same_outcome(decode, payload, len(ms), pred_n, pred_x, 16,
                        False, MAX_RUN, False) == ("ok", (xs, None))


@pytest.mark.parametrize("tau", [1, 7, 0xFFFF])
def test_unmap_parity_at_numerator_limit(tau, kernels):
    # arbitrary codewords against numerators near +-(2**62 - 1): the unmap
    # and the estimator stay exact in the compiled loop
    rng = np.random.default_rng(tau)
    payload = rng.integers(0, 256, size=4000, dtype=np.uint8).tobytes()
    lim = (1 << 62) - 1
    pred_n = [int(v) for v in rng.choice([lim, -lim, lim - 12345, 1 - lim, 0], 600)]
    args = (payload, 600, pred_n, None, tau, False, MAX_RUN, True)
    assert same_outcome(both(kernels, "adaptive_decode"), *args)[0] == "ok"


def test_compiled_range_guards(kernels):
    # inputs outside what the 64-bit loops can hold exactly raise, not wrap
    with pytest.raises(ValueError):
        kernels.golomb_encode([1], (1 << 32) + 1, MAX_RUN)
    with pytest.raises(ValueError):
        kernels.golomb_decode(b"\x00", 1, 1, 1 << 62)
    with pytest.raises(ValueError):
        kernels.adaptive_decode(b"\x00", 1, [1 << 62], None, 1, False, MAX_RUN, False)


def test_backend_module_exports():
    assert _backend.BACKEND_NAME in ("pure", "compiled")
    for name in ENTRY_POINTS:
        assert callable(getattr(_backend, name))
    assert codec.DEFAULT_MAX_RUN == MAX_RUN


def test_estimator_constants_shared():
    # the compiled kernels read the saturation point and the table from here
    assert _estcore.EST_SATURATION == 1 << 62
    assert _estcore.MAX_ADAPTIVE_M == 64
    assert len(BOUNDS) == 64
    assert BOUNDS[0] == float.fromhex("-0x1.ecc2caec51608p-1")
    assert BOUNDS[-1] == float.fromhex("-0x1.6025c8c56db20p-6")


@pytest.mark.parametrize("size", [63, 65])
def test_compiled_import_needs_the_64_entry_table(size, kernels):
    # the module copies _estcore.LOG_BOUNDARIES once, at import; load the
    # built package without its __init__ so the table can be cut first
    script = "\n".join([
        "import sys, types",
        "pkg = types.ModuleType('frgc')",
        f"pkg.__path__ = [{str(Path(kernels.__file__).parent)!r}]",
        "sys.modules['frgc'] = pkg",
        "import frgc._estcore as e",
        f"e.LOG_BOUNDARIES = (e.LOG_BOUNDARIES * 2)[:{size}]",
        "try:",
        "    import frgc._kernels",
        "except ImportError as exc:",
        "    print('refused:', exc)",
    ])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"refused: LOG_BOUNDARIES must have 64 entries, got {size}\n"


def test_saturation_and_boundary_parity(kernels):
    sat = _estcore.EST_SATURATION
    args = ([3] * 4, [sat - 1, 1000, 1000, 7], None, 16, MAX_RUN, True)
    assert _pure.adaptive_encode(*args) == kernels.adaptive_encode(*args)
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
            args = ([0, 0], None, [s, 0.0], 1, MAX_RUN, True)
            result = _pure.adaptive_encode(*args)
            assert result == kernels.adaptive_encode(*args)
            assert [m for m, _, _ in result[2]] == [1, k]
            # the same boundary reached from above: -1/(2s) then -2/(2s)
            args = ([0, 0, 0], None, [2 * s, 0.0, 0.0], 1, MAX_RUN, True)
            result = _pure.adaptive_encode(*args)
            assert result == kernels.adaptive_encode(*args)
            assert [m for m, _, _ in result[2]][2] == k
    assert hits >= 32
