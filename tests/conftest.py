"""Shared fixtures.

``kernels`` is frgc._kernels as ``setup.py build_ext`` builds it from the
shipped ``_kernels.c``, once per run, in a temporary copy of the project,
so the compile flags come from ``setup.py`` alone; the build must print
no compiler warning under ``WARNINGS``.  Tests using it skip only where
there is no C compiler or no ``Python.h``.
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

ROOT = Path(__file__).resolve().parents[1]
WARNINGS = "-Wall -Wextra -Wpedantic -Wshadow -Wsign-conversion"


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
        env=dict(os.environ, CFLAGS=WARNINGS), capture_output=True, text=True)
    log = proc.stdout + proc.stderr
    assert proc.returncode == 0, log
    assert "warning:" not in log, log
    built = list(pkg.glob("_kernels*" + sysconfig.get_config_var("EXT_SUFFIX")))
    assert len(built) == 1, log
    spec = importlib.util.spec_from_file_location("frgc._kernels", built[0])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
