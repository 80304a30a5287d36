"""Select the stream-loop implementation.

The compiled extension (frgc._kernels) is used when it imports, and the
pure-Python loops (frgc._pure) otherwise.  Both produce byte-identical
streams, so the choice only affects speed.
"""

from __future__ import annotations

try:
    from frgc import _kernels as _impl
except ImportError:
    from frgc import _pure as _impl  # type: ignore[no-redef]

BACKEND_NAME = _impl.BACKEND_NAME
golomb_encode = _impl.golomb_encode
golomb_decode = _impl.golomb_decode
adaptive_encode = _impl.adaptive_encode
adaptive_decode = _impl.adaptive_decode
