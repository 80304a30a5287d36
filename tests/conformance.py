"""The conformance set: VERSION 4 streams, valid and malformed, as files.

tests/data/conformance/ holds one file of at most 1 KB per stream, its
name and SUFFIX, and INDEX lists them by name.  A valid stream's entry holds the SHA-256 of its bytes
and of its decoded symbols (int64, little-endian), its count, and the
external predictions it was coded against (float.hex strings; null for
lpc streams, which predict for themselves).  The set covers every mode,
the raw-estimator flag, lpc, alphabet_q set and unset, count 0 and 1,
m = M_MAX and tau = TAU_MAX.  A malformed stream's entry holds the
SHA-256 of its bytes and the exception class decode_stream raises on it.
The malformed streams are built byte by byte, with zlib's CRC-32 where
they carry a good one.  Run

    PYTHONPATH=src python tests/conformance.py

to rebuild every file with the pure backend.  A format change rebuilds
them this way and names the entries that changed.
"""

from __future__ import annotations

import hashlib
import json
import struct
import sys
import zlib
from pathlib import Path

import numpy as np

from frgc import _backend
from frgc.bitcoder import M_MAX, TAU_MAX
from frgc.codec import StreamHeader, encode_stream
from frgc.predictor import LpcConfig

from container import leb128, payload_of, reseal
from golden import ar2_signal

DIR = Path(__file__).with_name("data") / "conformance"
INDEX = DIR / "index.json"
SUFFIX = ".frgc"


def _walk(seed: int, n: int, step: int = 6, start: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return start + np.cumsum(rng.integers(-step, step + 1, size=n))


def _near(xs: np.ndarray, seed: int, scale: float = 2.0) -> np.ndarray:
    """Predictions of xs, off by Laplace noise, with fractional parts."""
    return xs + np.random.default_rng(seed).laplace(0.0, scale, xs.size)


def valid_streams() -> dict:
    """name -> (symbols, predictions or None, header)."""
    walk = _walk(1, 120)
    letters = np.abs(_walk(2, 150, 9, 128)) % 256
    pool = {
        "fixed-1-4-m2": (walk, _near(walk, 3),
                          StreamHeader(mode="fixed", rho=1, tau=4, m=2)),
        "rice-m3": (walk, np.round(_near(walk, 4)),
                     StreamHeader(mode="rice", rho=1, tau=1, m=3)),
        "adaptive-3-16": (walk, _near(walk, 5), StreamHeader(mode="adaptive", rho=3, tau=16)),
        "adaptive-raw-1-8": (walk, _near(walk, 6),
                             StreamHeader(mode="adaptive", rho=1, tau=8,
                                          raw_error_estimator=True)),
        "fixed-alphabet-256": (letters, _near(letters, 7, 6.0),
                               StreamHeader(mode="fixed", rho=1, tau=2, m=9, alphabet_q=256)),
        "adaptive-alphabet-1000": (letters, _near(letters, 8, 40.0),
                                   StreamHeader(mode="adaptive", rho=1, tau=4,
                                                alphabet_q=1000)),
        "lpc-adaptive-2-16-16": (np.array(ar2_signal(9, 300, 20.0)), None,
                                     StreamHeader(mode="adaptive", rho=1, tau=8,
                                                  lpc=LpcConfig(2, 16, 16))),
        "lpc-adaptive-raw-4-32-8": (np.array(ar2_signal(10, 300, 20.0)), None,
                                        StreamHeader(mode="adaptive", rho=1, tau=8,
                                                     lpc=LpcConfig(4, 32, 8),
                                                     raw_error_estimator=True)),
        "lpc-fixed-1-4-1": (np.array(ar2_signal(11, 200, 5.0)), None,
                                StreamHeader(mode="fixed", rho=1, tau=4, m=24,
                                             lpc=LpcConfig(1, 4, 1))),
        "count-0": (walk[:0], None, StreamHeader(mode="adaptive", rho=1, tau=16)),
        "count-1": (walk[:1], None, StreamHeader(mode="fixed", rho=1, tau=1, m=5)),
        "fixed-m-max": (walk[:60] * 1000, None,
                      StreamHeader(mode="fixed", rho=1, tau=1, m=M_MAX)),
        "adaptive-tau-max": (walk[:40], _near(walk[:40], 12),
                          StreamHeader(mode="adaptive", rho=1, tau=TAU_MAX)),
        "fixed-rho-tau-max": (walk[:40], _near(walk[:40], 13),
                                StreamHeader(mode="fixed", rho=TAU_MAX, tau=TAU_MAX, m=4)),
    }
    return {name: (xs.astype(np.int64), None if pred is None else pred.astype(np.float64),
                   header)
            for name, (xs, pred, header) in pool.items()}


def _sealed(kind: int, fields: list[bytes], payload: bytes) -> bytes:
    """A VERSION 4 stream written byte by byte, with zlib's CRC-32 over it."""
    return reseal(b"FRGC" + bytes((4, kind)) + b"".join(fields) + payload + bytes(4))


def malformed_streams(valid: dict) -> dict:
    """name -> (bytes, the name of the exception class decode_stream raises)."""
    v = leb128
    fixed = valid["fixed-1-4-m2"]
    payload = payload_of(fixed)
    n = 120
    good = [v(1), v(4), v(2), v(n), v(len(payload))]  # fixed mode at 1/4, m = 2
    assert _sealed(0, good, payload) == fixed
    # the VERSION 3 layout: a fixed 31-byte header, then the payload
    version_3 = struct.pack("<4sBBBHHHIQBBHH", b"FRGC", 3, 0, 0, 1, 4, 2, 0, n,
                            0, 0, 0, 0) + payload
    bad_crc = bytearray(fixed)
    bad_crc[-1] ^= 0x01
    adaptive = valid["adaptive-3-16"]
    return {
        "bad-magic": (b"FRGX" + fixed[4:], "HeaderError"),
        "version-3": (version_3, "HeaderError"),
        "unknown-kind-bit": (_sealed(0x20, good, payload), "HeaderError"),
        "mode-code-3": (_sealed(0x03, good, payload), "HeaderError"),
        "overlong-varint": (_sealed(0, [b"\x81\x00", *good[1:]], payload), "HeaderError"),
        "varint-past-its-bytes": (_sealed(0, [b"\x81\x80\x80\x00", *good[1:]], payload),
                                  "HeaderError"),
        "value-past-its-bound": (_sealed(0, [v(1), v(TAU_MAX + 1), *good[2:]], payload),
                                 "HeaderError"),
        "lpc-order-0": (_sealed(0x08, [*good[:3], v(0), v(4), v(4), *good[3:]], payload),
                        "HeaderError"),
        "count-past-the-payload-bits": (
            _sealed(0, [*good[:3], v(8 * len(payload) + 1), good[4]], payload),
            "TruncatedStreamError"),
        "payload-length-past-the-data": (
            _sealed(0, [*good[:4], v(len(payload) + 1)], payload), "TruncatedStreamError"),
        "bad-crc": (bytes(bad_crc), "CorruptStreamError"),
        "truncated": (adaptive[:len(adaptive) - 12], "TruncatedStreamError"),
    }


def build() -> tuple[dict, dict]:
    """(files, index): every stream's bytes by file name, and the index."""
    pool = valid_streams()
    valid = {name: encode_stream(xs, header, pred) for name, (xs, pred, header) in pool.items()}
    files, index = {}, {"valid": {}, "malformed": {}}
    for name, data in valid.items():
        xs, pred, _ = pool[name]
        files[name + SUFFIX] = data
        index["valid"][name] = {
            "sha256": hashlib.sha256(data).hexdigest(),
            "symbols_sha256": hashlib.sha256(xs.astype("<i8").tobytes()).hexdigest(),
            "count": int(xs.size),
            "predictions": None if pred is None else [float(p).hex() for p in pred],
        }
    for name, (data, raises) in malformed_streams(valid).items():
        files[name + SUFFIX] = data
        index["malformed"][name] = {"sha256": hashlib.sha256(data).hexdigest(),
                                    "raises": raises}
    return files, index


def main() -> int:
    if _backend.BACKEND_NAME != "pure":
        sys.stderr.write("rebuild from the pure backend: remove the built _kernels\n")
        return 1
    files, index = build()
    DIR.mkdir(parents=True, exist_ok=True)
    for stale in DIR.glob("*" + SUFFIX):
        if stale.name not in files:
            stale.unlink()
    for name, data in files.items():
        (DIR / name).write_bytes(data)
    INDEX.write_text(json.dumps(index, indent=1) + "\n")
    print(f"{DIR}: {len(index['valid'])} valid and {len(index['malformed'])} malformed streams")
    return 0


if __name__ == "__main__":
    sys.exit(main())
