"""Shared fixtures.

``kernels`` is frgc._kernels as ``setup.py build_ext`` builds it from the
shipped ``_kernels.c``, once per run, in a temporary copy of the project,
so the compile flags come from ``setup.py`` alone; the build must print
no compiler warning under ``WARNINGS``.  Tests using it skip only where
there is no C compiler or no ``Python.h``.

``backend`` routes the codec's backend calls to ``_pure``, then to the
kernels: a test that takes it runs once on each backend.

With FRGC_SANITIZE set to a sanitizer (``undefined``), the build adds
``-fsanitize=`` and ``-fno-sanitize-recover=`` that sanitizer, and
``-fno-wrapv``: Python's own CFLAGS carry ``-fwrapv``, under which a
signed overflow is defined and goes unchecked.  Only the tests that run
the kernels are then collected: test_sanitized.py runs them so.
"""

import importlib.util
import os
import shlex
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

from frgc import _backend, _pure

ROOT = Path(__file__).resolve().parents[1]
WARNINGS = "-Wall -Wextra -Wpedantic -Wshadow -Wsign-conversion"
SANITIZE = os.environ.get("FRGC_SANITIZE")
ENTRY_POINTS = ("golomb_encode", "golomb_decode", "adaptive_encode", "adaptive_decode")


def pytest_collection_modifyitems(config, items):
    """Under FRGC_SANITIZE, deselect the tests that never reach the kernels."""
    if SANITIZE:
        compiled = [item for item in items
                    if {"kernels", "coders"} & set(getattr(item, "fixturenames", ()))]
        config.hook.pytest_deselected(items=[item for item in items if item not in compiled])
        items[:] = compiled


@pytest.fixture(scope="session")
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
        env=dict(os.environ, CFLAGS=WARNINGS + (
            f" -fsanitize={SANITIZE} -fno-sanitize-recover={SANITIZE} -fno-wrapv"
            if SANITIZE else "")),
        capture_output=True, text=True)
    log = proc.stdout + proc.stderr
    assert proc.returncode == 0, log
    assert "warning:" not in log, log
    built = list(pkg.glob("_kernels*" + sysconfig.get_config_var("EXT_SUFFIX")))
    assert len(built) == 1, log
    spec = importlib.util.spec_from_file_location("frgc._kernels", built[0])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(params=["pure", "compiled"])
def backend(request, monkeypatch):
    """Route the codec's backend calls to _pure, or to the compiled kernels."""
    module = _pure if request.param == "pure" else request.getfixturevalue("kernels")
    for name in ENTRY_POINTS:
        monkeypatch.setattr(_backend, name, getattr(module, name))
    return module
