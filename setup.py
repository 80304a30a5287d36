"""Build script: compiles the optional C kernels (frgc._kernels).

The package works without the extension (frgc._backend falls back to the
pure-Python loops), so a missing compiler only costs speed.
-ffp-contract=off keeps the estimator's float expressions unfused, so they
round exactly as Python's do.
"""

from setuptools import Extension, setup

setup(ext_modules=[Extension("frgc._kernels", ["src/frgc/_kernels.c"],
                             extra_compile_args=["-ffp-contract=off"],
                             optional=True)])
