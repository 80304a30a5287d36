"""Frozen reference coder that measures how fast the host is right now.

The host this benchmark was written on changes speed by up to 1.8x in
phases lasting from under a second to minutes, in CPU time as well as wall time, so raw
call times from two runs minutes apart are not comparable.  The benchmark
therefore runs this small pure-Python Rice coder between calls and
expresses every call time in units of it: a call that took t ns while
the reference took r ns counts as t * NOMINAL_NS / r.  The reference is
part of the benchmark, never of the program, and must not change, or
every normalised figure changes with it.
"""

from __future__ import annotations

from time import perf_counter_ns

import numpy as np

N_VALUES = 1500
RICE_K = 2
# The reference's typical time on the 2-core host where the benchmark
# was written; normalised figures read as if the host always ran at it.
NOMINAL_NS = 2_000_000


_VALUES = np.random.Generator(np.random.Philox(key=[0, 12345])).geometric(
    0.3, N_VALUES).tolist()
_ARRAY = np.arange(20_000, dtype=np.int64)


def rice_encode(values, k: int) -> bytes:
    buf = bytearray()
    acc = nacc = 0
    mask = (1 << k) - 1
    for v in values:
        q = v >> k
        acc = (((acc << (q + 1)) | (((1 << q) - 1) << 1)) << k) | (v & mask)
        nacc += q + 1 + k
        while nacc >= 8:
            nacc -= 8
            buf.append((acc >> nacc) & 0xFF)
        acc &= (1 << nacc) - 1
    if nacc:
        buf.append((acc << (8 - nacc)) & 0xFF)
    return bytes(buf)


def rice_decode(data: bytes, count: int, k: int) -> list[int]:
    out = []
    pos = 0
    for _ in range(count):
        q = 0
        while (data[pos >> 3] >> (7 - (pos & 7))) & 1:
            q += 1
            pos += 1
        pos += 1
        r = 0
        for _ in range(k):
            r = (r << 1) | ((data[pos >> 3] >> (7 - (pos & 7))) & 1)
            pos += 1
        out.append((q << k) | r)
    return out


def measure() -> int:
    """Nanoseconds for one encode/decode of the reference values, plus a
    small vector fold standing in for the codec's numpy passes."""
    t0 = perf_counter_ns()
    data = rice_encode(_VALUES, RICE_K)
    out = rice_decode(data, N_VALUES, RICE_K)
    np.where(_ARRAY % 2 == 0, _ARRAY // 2, -(_ARRAY // 2) - 1)
    elapsed = perf_counter_ns() - t0
    if out != _VALUES:
        raise RuntimeError("reference coder failed its own round trip")
    return elapsed
