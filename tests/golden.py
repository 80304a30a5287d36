"""The golden streams: seeded pools whose bytes tier-1 pins by digest.

A digest is the SHA-256 of a stream with its version byte set to 0 and
its CRC-32, which covers that byte, left out (normalised_digest), so a
version bump alone moves none; decoding a stream checks its CRC.  There are three
pools: backward-LPC streams (lpc_streams, pinned since format 2 in
LPC_GOLDEN), streams of every other mode against external predictions
(external_streams, in EXTERNAL_GOLDEN), and adaptive streams whose
symbols are steered (steer.py) so that m takes every value from 1 to
MAX_ADAPTIVE_M, stepping down as well as up (steered_streams, in
STEERED_GOLDEN), which pin the adaptive choice of m.  Run

    PYTHONPATH=src python tests/golden.py

to re-encode every pool with the pure backend and rewrite the files.
A change that moves a stream on purpose (a format bump) regenerates them
this way and names the entries that changed.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from frgc import _backend
from frgc._estcore import MAX_ADAPTIVE_M
from frgc.codec import MODE_ADAPTIVE, MODE_FIXED, MODE_RICE, StreamHeader, encode_stream
from frgc.predictor import LpcConfig

from steer import steered_symbols

DATA = Path(__file__).with_name("data")
LPC_GOLDEN = DATA / "lpc_golden_sha256.json"
EXTERNAL_GOLDEN = DATA / "external_golden_sha256.json"
STEERED_GOLDEN = DATA / "steered_golden_sha256.json"

# The LpcConfig (order, window, refit interval) of each benchmark LPC frame.
CONFIGS = ((2, 16, 16), (4, 64, 32), (8, 256, 256), (2, 32, 1))
MODES = {
    "adaptive-int": dict(mode=MODE_ADAPTIVE),
    "adaptive-raw": dict(mode=MODE_ADAPTIVE, raw_error_estimator=True),
    "fixed": dict(mode=MODE_FIXED, m=64),
}
GOLDEN_LENGTH = 700

# The external pool: every header below at each of LENGTHS, and the two
# in LONG_HEADERS also at the lengths around the pure encoder's block.
PRECISIONS = ((1, 1), (1, 4), (3, 16), (1, 0xFFFF))
FIXED_MS = (1, 2, 13, 0xFFFF)
RICE_MS = (1, 3)
LENGTHS = (0, 1, 255, 256, 257)
LONG_LENGTHS = (16383, 16384, 16385)
LONG_HEADERS = ("fixed m=13 3/16", "adaptive-int 1/4")

# The steered pool: each adaptive estimator (tau, raw) steered up to each
# top m, holding every m for a number of symbols drawn from STEER_HOLD,
# all longer than the pure decoder's cold start (_pure.SETTLE_SYMBOLS = 64
# when the pool was recorded; the inputs stay fixed).  The streams that reach
# MAX_ADAPTIVE_M end in PAST_CAP symbols of magnitude PAST_CAP_SIZE, which
# take ln theta_hat past the last boundary, where the cap holds m at 64.
STEERED = {"int 1/1": (1, False), "int 1/16": (16, False), "raw 1/1": (1, True)}
STEERED_TOPS = (16, MAX_ADAPTIVE_M)
STEER_HOLD = (65, 128)
PAST_CAP, PAST_CAP_SIZE = 300, 400


def normalised_digest(data: bytes) -> str:
    data = bytearray(data[:-4])
    data[4] = 0
    return hashlib.sha256(bytes(data)).hexdigest()


def ar2_signal(seed: int, n: int, scale: float = 50.0) -> list[int]:
    """Integer AR(2) signal (1.6, -0.7) with Laplace innovations, 16-bit."""
    e = np.random.default_rng(seed).laplace(0.0, scale, n)
    y = []
    prev1 = prev2 = 0.0
    for t in range(n):
        cur = 1.6 * prev1 - 0.7 * prev2 + e[t]
        y.append(cur)
        prev2, prev1 = prev1, cur
    return np.clip(np.rint(y), -(1 << 15), (1 << 15) - 1).astype(np.int64).tolist()


def lpc_streams():
    """{name: (symbols, header)} of the LPC pool, recorded from the
    version 2 encoder, which summed the normal equations in floats.
    Every product and sum of these 16-bit signals is exact in a double,
    so the exact integer sums give the same bytes."""
    pool = {}
    for k, cfg in enumerate(CONFIGS):
        xs = ar2_signal(100 + k, GOLDEN_LENGTH)
        for mode, kwargs in MODES.items():
            header = StreamHeader(rho=1, tau=8, lpc=LpcConfig(*cfg), **kwargs)
            pool[f"{mode} {cfg}"] = (xs, header)
    # and one at a precision whose grid step is not 1/tau
    xs, header = pool["adaptive-int (2, 16, 16)"]
    pool["adaptive-int (2, 16, 16) 3/16"] = (xs, replace(header, rho=3, tau=16))
    return pool


def external_headers():
    """{name: (header, Laplace scale of the prediction errors)}.

    A fixed header's scale puts its mean mapped value near m; an adaptive
    header's scale is a walk (None), so that its m moves."""
    headers = {}
    for rho, tau in PRECISIONS:
        for m in FIXED_MS:
            headers[f"fixed m={m} {rho}/{tau}"] = (
                StreamHeader(mode=MODE_FIXED, rho=rho, tau=tau, m=m), m / 2)
        for kind, raw in (("int", False), ("raw", True)):
            headers[f"adaptive-{kind} {rho}/{tau}"] = (
                StreamHeader(mode=MODE_ADAPTIVE, rho=rho, tau=tau,
                             raw_error_estimator=raw), None)
    for m in RICE_MS:
        headers[f"rice m={m} 1/1"] = (StreamHeader(mode=MODE_RICE, rho=1, tau=1, m=m), m / 2)
    return headers


def external_streams():
    """{name: (symbols, predictions, header)} of the external pool.

    16-bit symbols, and predictions off them by Laplace noise; an
    adaptive stream's scale steps 2, 300, 20 over its thirds."""
    pool = {}
    for k, (name, (header, scale)) in enumerate(external_headers().items()):
        lengths = LENGTHS + (LONG_LENGTHS if name in LONG_HEADERS else ())
        rng = np.random.default_rng(1000 + k)
        n = max(lengths)
        xs = rng.integers(-(1 << 15), 1 << 15, n)
        scales = np.full(n, scale) if scale else np.repeat([2.0, 300.0, 20.0], -(-n // 3))[:n]
        pred = xs + rng.laplace(0.0, 1.0, n) * scales
        for length in lengths:
            pool[f"{name} n={length}"] = (xs[:length], pred[:length], header)
    return pool


def steered_schedule(top: int, seed: int) -> list[int]:
    """m per symbol: 1, 3, 2, 4, 3, ..., top, top - 1, up two and down one,
    so every m from 1 to top, each held for STEER_HOLD symbols.  A run
    that steps up ends at the bottom of its interval, from where a step
    down is one residual of 0 (steer.py)."""
    rng = np.random.default_rng(seed)
    steps = [1] + [m for k in range(3, top + 1) for m in (k, k - 1)]
    return [m for m in steps for _ in range(int(rng.integers(*STEER_HOLD, endpoint=True)))]


def steered_streams():
    """{name: (symbols, m per symbol, header)} of the steered pool, all
    against zero predictions."""
    pool = {}
    for k, (name, (tau, raw)) in enumerate(STEERED.items()):
        header = StreamHeader(mode=MODE_ADAPTIVE, rho=1, tau=tau, raw_error_estimator=raw)
        for top in STEERED_TOPS:
            seed = 2000 + 100 * k + top
            ms = steered_schedule(top, seed)
            n = len(ms)
            if top == MAX_ADAPTIVE_M:
                ms += [MAX_ADAPTIVE_M] * PAST_CAP
            xs = steered_symbols(ms, tau=tau, raw=raw, seed=seed)
            xs[n:] = np.random.default_rng(seed).choice([-1, 1], xs.size - n) * PAST_CAP_SIZE
            pool[f"adaptive-{name} top={top}"] = (xs, ms, header)
    return pool


def digests():
    """(LPC digests, external digests, steered digests), each {name:
    digest}, from the encoder on the path."""
    lpc = {name: normalised_digest(encode_stream(xs, header))
           for name, (xs, header) in lpc_streams().items()}
    external = {name: normalised_digest(encode_stream(xs, header, pred))
                for name, (xs, pred, header) in external_streams().items()}
    steered = {name: normalised_digest(encode_stream(xs, header))
               for name, (xs, _, header) in steered_streams().items()}
    return lpc, external, steered


def main() -> int:
    if _backend.BACKEND_NAME != "pure":
        sys.stderr.write("regenerate from the pure backend: remove the built _kernels\n")
        return 1
    for path, table in zip((LPC_GOLDEN, EXTERNAL_GOLDEN, STEERED_GOLDEN), digests()):
        path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
        print(f"{path}: {len(table)} streams")
    return 0


if __name__ == "__main__":
    sys.exit(main())
