"""The compiled parity tests again, against a build under UBSan.

The numerator check in front of adaptive_decode is what keeps the C
unfold's 64-bit arithmetic defined, so the tests that run the kernels
(test_backends.py and test_pure_arrays.py) also run against a build of
``_kernels.c`` with ``-fsanitize=undefined -fno-sanitize-recover=undefined
-fno-wrapv`` (conftest.py), which aborts at the first signed overflow,
bad shift or misaligned read.
"""

import os
import shlex
import subprocess
import sys
import sysconfig

import pytest

from conftest import ROOT


def test_compiled_cases_pass_under_ubsan(kernels, tmp_path):
    # skips with the plain build (no compiler, no Python.h), and where
    # the compiler cannot link the sanitizer's runtime
    probe = tmp_path / "probe.c"
    probe.write_text("int twice(int x) { return 2 * x; }\n")
    link = subprocess.run(
        [*shlex.split(sysconfig.get_config_var("CC")), "-fsanitize=undefined", "-shared",
         "-fPIC", str(probe), "-o", str(tmp_path / "probe.so")], capture_output=True)
    if link.returncode:
        pytest.skip("the UBSan runtime cannot be linked")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "tests/test_backends.py", "tests/test_pure_arrays.py"],
        cwd=ROOT, env=dict(os.environ, FRGC_SANITIZE="undefined", PYTHONPATH=path),
        capture_output=True, text=True)
    summary = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    assert proc.returncode == 0, proc.stdout[-5000:] + proc.stderr[-5000:]
    assert " passed" in summary and "skipped" not in summary, summary
