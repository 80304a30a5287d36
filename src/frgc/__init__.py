"""Lossless predictive coding with a fractional-precision Golomb code.

Residuals against real-valued predictions are quantized on a rho/tau
grid, mapped to non-negative integers exactly, and Golomb-coded; the
analysis half provides the Laplace model, average code lengths, optimal
parameter selection, and redundancy curves that the experiments sweep.

The package namespace holds what the README, the command line and the
experiment harness use; everything else is reached through its module
(frgc.analysis, frgc.bitcoder, frgc.codec, frgc.predictor, frgc.qmap).
"""

from frgc._backend import BACKEND_NAME
from frgc.analysis import avg_code_length, lookup_m, redundancy_percent
from frgc.bitcoder import CorruptStreamError
from frgc.codec import HeaderError, StreamHeader, decode_stream, encode_stream
from frgc.predictor import LpcConfig
from frgc.qmap import ASYMPTOTIC, Precision

__version__ = "0.1.0"

__all__ = [
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
