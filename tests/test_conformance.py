"""The conformance set (tests/conformance.py) on both backends.

Each valid stream decodes to the recorded symbols and encodes back to
its own bytes; each malformed one raises its recorded exception class.
"""

import hashlib
import json

import numpy as np
import pytest

from frgc import codec
from frgc.bitcoder import M_MAX, TAU_MAX, CorruptStreamError
from frgc.codec import decode_stream, encode_stream, read_container

from conformance import DIR, INDEX, SUFFIX, build

TABLE = json.loads(INDEX.read_text())
RAISES = {"HeaderError": codec.HeaderError, "CorruptStreamError": CorruptStreamError,
          "TruncatedStreamError": codec.TruncatedStreamError}


def stream(name: str) -> bytes:
    return (DIR / (name + SUFFIX)).read_bytes()


def predictions(entry):
    hexes = entry["predictions"]
    return None if hexes is None else np.array([float.fromhex(h) for h in hexes])


def test_files_are_the_index_and_the_generators():
    names = {*TABLE["valid"], *TABLE["malformed"]}
    assert {path.name for path in DIR.iterdir()} == {INDEX.name} | {
        name + SUFFIX for name in names}
    for entry in (*TABLE["valid"].items(), *TABLE["malformed"].items()):
        name, want = entry
        data = stream(name)
        assert len(data) <= 1024, name
        assert hashlib.sha256(data).hexdigest() == want["sha256"], name
    files, index = build()
    assert index == TABLE
    assert all(stream(name[:-len(SUFFIX)]) == data for name, data in files.items())


def test_the_valid_set_covers_every_mode_flag_and_edge():
    containers = [read_container(stream(name)) for name in TABLE["valid"]]
    headers = [header for header, _, _ in containers]
    assert {h.mode for h in headers} == {"fixed", "adaptive", "rice"}
    assert any(h.raw_error_estimator for h in headers)
    assert {h.lpc is None for h in headers} == {True, False}
    assert {h.alphabet_q == 0 for h in headers} == {True, False}
    assert {0, 1} <= {count for _, count, _ in containers}
    assert {1, M_MAX} <= {h.m for h in headers if h.mode == "fixed"}
    assert any(h.tau == TAU_MAX for h in headers)
    assert any(1 < h.rho == h.tau < TAU_MAX for h in headers)
    assert any(h.lpc and 1 < count < h.lpc.warmup for h, count, _ in containers)


@pytest.mark.parametrize("name", sorted(TABLE["valid"]))
def test_valid_streams_decode_and_encode_back(name, backend):
    entry, data = TABLE["valid"][name], stream(name)
    pred = predictions(entry)
    out = decode_stream(data, pred)
    assert len(out) == entry["count"]
    symbols = np.array(out, dtype="<i8")
    assert hashlib.sha256(symbols.tobytes()).hexdigest() == entry["symbols_sha256"]
    assert encode_stream(symbols, read_container(data)[0], pred) == data


@pytest.mark.parametrize("name", sorted(TABLE["malformed"]))
def test_malformed_streams_raise_their_class(name, backend):
    entry = TABLE["malformed"][name]
    with pytest.raises(RAISES[entry["raises"]]) as info:
        decode_stream(stream(name))
    assert type(info.value) is RAISES[entry["raises"]]
