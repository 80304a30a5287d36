"""Compiled kernels agree bit for bit with the pure-Python reference.

The shipped ``_kernels.c`` is compiled once per run into a temporary copy
of the package, with the interpreter's own compiler command and headers;
the tests skip only where those are missing.
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

import frgc
from frgc import _backend, _estcore, _pure
from frgc.bitcoder import CorruptStreamError

BOUNDS = _estcore.LOG_BOUNDARIES
PACKAGE = Path(frgc.__file__).parent


@pytest.fixture(scope="module")
def build(tmp_path_factory):
    """A copy of the package with the shipped _kernels.c compiled into it."""
    ldshared = sysconfig.get_config_var("LDSHARED")
    include = sysconfig.get_paths()["include"]
    if not ldshared or shutil.which(shlex.split(ldshared)[0]) is None:
        pytest.skip("no C compiler")
    if not (Path(include) / "Python.h").exists():
        pytest.skip("no Python.h")
    root = tmp_path_factory.mktemp("kernels")
    pkg = root / "frgc"
    shutil.copytree(PACKAGE, pkg, ignore=shutil.ignore_patterns(
        "__pycache__", "*.so", "*.pyd"))
    so = pkg / ("_kernels" + sysconfig.get_config_var("EXT_SUFFIX"))
    subprocess.run(shlex.split(ldshared) + [
        "-fPIC", "-O2", "-ffp-contract=off", "-I", include,
        str(pkg / "_kernels.c"), "-o", str(so)], check=True)
    return root, so


@pytest.fixture(scope="module")
def kernels(build):
    spec = importlib.util.spec_from_file_location("frgc._kernels", build[1])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
        pure_payload, pure_bits = _pure.golomb_encode(ms, m)
        fast_payload, fast_bits = kernels.golomb_encode(ms, m)
        assert pure_payload == fast_payload
        assert pure_bits == fast_bits


@pytest.mark.parametrize("m", [1, 3, 8, 64])
def test_golomb_decode_parity(m, kernels):
    for ms in random_streams():
        payload, _ = _pure.golomb_encode(ms, m)
        a = _pure.golomb_decode(payload, len(ms), m, 1 << 20)
        b = kernels.golomb_decode(payload, len(ms), m, 1 << 20)
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
        est = est_raw if raw else est_int
        args = (ms, None if raw else est_int, est_raw if raw else None, tau, BOUNDS, True)
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
            ms, None if raw else est_int, est_raw if raw else None, tau, BOUNDS, False
        )
        args = (payload, len(ms), pred_n, pred_x, 1, tau, BOUNDS, raw, 1 << 20, True)
        p_out, p_trace = _pure.adaptive_decode(*args)
        k_out, k_trace = kernels.adaptive_decode(*args)
        assert p_out == k_out == xs
        assert p_trace == k_trace


def test_decode_corruption_parity(kernels):
    payload, _ = _pure.golomb_encode([3, 1, 4], 2)
    for backend in (_pure, kernels):
        with pytest.raises(CorruptStreamError):
            backend.golomb_decode(payload[:1], 3, 2, 1 << 20)
        with pytest.raises(CorruptStreamError):
            backend.golomb_decode(b"\xff" * 512, 1, 1, 256)


def test_backend_selection_env(build):
    # FRGC_PURE forces the fallback and produces identical stream bytes
    script = (
        "import frgc, numpy as np\n"
        "from frgc.codec import StreamHeader, encode_stream\n"
        "xs = np.arange(-500, 500).tolist()\n"
        "preds = [x + 0.4 for x in xs]\n"
        "h = StreamHeader(mode='adaptive', rho=1, tau=16)\n"
        "data = encode_stream(xs, h, predictions=preds)\n"
        "print(frgc.BACKEND_NAME)\n"
        "print(data.hex())\n"
    )
    outputs = {}
    for forced in ("0", "1"):
        env = dict(os.environ, FRGC_PURE=forced, PYTHONPATH=str(build[0]))
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, env=env, check=True
        )
        name, hexdata = proc.stdout.decode().split("\n", 1)
        name = name.strip()
        outputs[forced] = hexdata
        assert name == ("pure" if forced == "1" else "compiled")
    assert outputs["0"] == outputs["1"]


def test_backend_module_exports():
    assert _backend.BACKEND_NAME in ("pure", "compiled")
    for name in ("golomb_encode", "golomb_decode", "adaptive_encode", "adaptive_decode"):
        assert callable(getattr(_backend, name))


def test_estimator_constants_shared():
    # the compiled kernels read the saturation point and the table from here
    assert _estcore.EST_SATURATION == 1 << 62
    assert _estcore.MAX_ADAPTIVE_M == 64
    assert len(BOUNDS) == 64
    assert BOUNDS[0] == float.fromhex("-0x1.ecc2caec51608p-1")
    assert BOUNDS[-1] == float.fromhex("-0x1.6025c8c56db20p-6")


def test_saturation_and_boundary_parity(kernels):
    sat = _estcore.EST_SATURATION
    args = ([3] * 4, [sat - 1, 1000, 1000, 7], None, 16, BOUNDS, True)
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
            args = ([0, 0], None, [s, 0.0], 1, BOUNDS, True)
            result = _pure.adaptive_encode(*args)
            assert result == kernels.adaptive_encode(*args)
            assert [m for m, _, _ in result[2]] == [1, k]
    assert hits >= 32
