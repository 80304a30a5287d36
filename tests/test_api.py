"""The package namespace and the README's examples."""

import re
from pathlib import Path

import frgc

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


def test_readme_python_blocks_run():
    # the blocks build on each other, so they share one namespace
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) >= 3
    namespace: dict = {}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i + 1}", "exec"), namespace)
