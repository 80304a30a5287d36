"""The golden streams: seeded pools whose bytes tier-1 pins by digest.

A digest is the SHA-256 of a stream with its version byte set to 0
(normalised_digest), so a version bump alone moves none.  There are two
pools: backward-LPC streams (lpc_streams, pinned since format 2 in
LPC_GOLDEN) and streams of every other mode against external
predictions (external_streams, in EXTERNAL_GOLDEN).  Run

    PYTHONPATH=src python tests/golden.py

to re-encode both pools with the pure backend and rewrite both files.
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
from frgc.codec import MODE_ADAPTIVE, MODE_FIXED, MODE_RICE, StreamHeader, encode_stream
from frgc.predictor import LpcConfig

DATA = Path(__file__).with_name("data")
LPC_GOLDEN = DATA / "lpc_golden_sha256.json"
EXTERNAL_GOLDEN = DATA / "external_golden_sha256.json"

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


def normalised_digest(data: bytes) -> str:
    data = bytearray(data)
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


def digests():
    """(LPC digests, external digests), each {name: digest}, from the
    encoder on the path."""
    lpc = {name: normalised_digest(encode_stream(xs, header))
           for name, (xs, header) in lpc_streams().items()}
    external = {name: normalised_digest(encode_stream(xs, header, pred))
                for name, (xs, pred, header) in external_streams().items()}
    return lpc, external


def main() -> int:
    if _backend.BACKEND_NAME != "pure":
        sys.stderr.write("regenerate from the pure backend: remove the built _kernels\n")
        return 1
    for path, table in zip((LPC_GOLDEN, EXTERNAL_GOLDEN), digests()):
        path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
        print(f"{path}: {len(table)} streams")
    return 0


if __name__ == "__main__":
    sys.exit(main())
