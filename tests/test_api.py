"""The package namespace and the README's examples."""

import dataclasses
import inspect
import re
from pathlib import Path

import pytest

import frgc
from frgc import codec, qmap

README = Path(__file__).resolve().parents[1] / "README.md"

PUBLIC = [
    "ASYMPTOTIC",
    "BACKEND_NAME",
    "CorruptStreamError",
    "HeaderError",
    "LpcConfig",
    "Precision",
    "StreamHeader",
    "avg_code_length",
    "decode_stream",
    "encode_stream",
    "lookup_m",
    "redundancy_percent",
]


def test_public_names_resolve():
    assert sorted(frgc.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(frgc, name) is not None, name


def test_the_codec_surface_is_as_narrow_as_its_callers():
    # the count belongs to one stream, not to its header
    assert [f.name for f in dataclasses.fields(frgc.StreamHeader)] == [
        "mode", "rho", "tau", "m", "alphabet_q", "lpc", "raw_error_estimator"]
    with pytest.raises(TypeError):
        frgc.StreamHeader(mode="fixed", rho=1, tau=4, m=2, count=5)
    params = inspect.signature(codec.write_container).parameters
    assert list(params) == ["header", "payload", "count"]
    assert all(p.default is p.empty for p in params.values())
    header = frgc.StreamHeader(mode="fixed", rho=1, tau=4, m=2)
    data = codec.write_container(header, b"\x5a", 3)
    back, count, payload = codec.read_container(data)
    assert (back, count, bytes(payload)) == (header, 3, b"\x5a")
    # the decoder takes the stream and its predictions, nothing else
    assert list(inspect.signature(frgc.decode_stream).parameters) == ["data", "predictions"]


def test_qmap_holds_the_rounding_and_the_vector_unfold():
    # the scalar fold equations are the tests' oracles (tests/scalarfold.py)
    public = sorted(name for name, obj in vars(qmap).items()
                    if not name.startswith("_") and not inspect.ismodule(obj)
                    and getattr(obj, "__module__", qmap.__name__) == qmap.__name__)
    assert public == ["ASYMPTOTIC", "Precision", "SYMBOL_MAX", "SYMBOL_MIN",
                      "round_prediction", "unmap_array"]


def test_readme_python_blocks_run():
    # the blocks build on each other, so they share one namespace
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) >= 3
    namespace: dict = {}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i + 1}", "exec"), namespace)
