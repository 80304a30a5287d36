"""Lossless predictive coding with a fractional-precision Golomb code.

Residuals against real-valued predictions are quantized on a rho/tau
grid, mapped to non-negative integers exactly, and Golomb-coded; the
analysis half provides the Laplace model, average code lengths, optimal
parameter selection, and redundancy curves that the experiments sweep.
"""

from frgc._backend import BACKEND_NAME
from frgc.analysis import (
    LaplaceModel,
    OptimalMTable,
    avg_code_length,
    golomb_mstar,
    interval_code_length,
    laplace_pdf,
    laplace_sample,
    lookup_m,
    phi_root,
    redundancy,
    redundancy_percent,
)
from frgc.bitcoder import (
    BitSink,
    BitSource,
    CorruptStreamError,
    GolombParam,
    code_length,
)
from frgc.codec import (
    HeaderError,
    StreamHeader,
    decode_stream,
    decode_symbol,
    encode_stream,
    encode_symbol,
    read_header,
)
from frgc.predictor import LpcConfig
from frgc.qmap import (
    ASYMPTOTIC,
    Precision,
    QuantizedPrediction,
    ResidualNumerator,
    map_residual,
    residual,
    round_prediction,
    unmap,
)

__version__ = "0.1.0"

__all__ = [
    "ASYMPTOTIC",
    "BACKEND_NAME",
    "BitSink",
    "BitSource",
    "CorruptStreamError",
    "GolombParam",
    "HeaderError",
    "LaplaceModel",
    "LpcConfig",
    "OptimalMTable",
    "Precision",
    "QuantizedPrediction",
    "ResidualNumerator",
    "StreamHeader",
    "avg_code_length",
    "code_length",
    "decode_stream",
    "decode_symbol",
    "encode_stream",
    "encode_symbol",
    "golomb_mstar",
    "interval_code_length",
    "laplace_pdf",
    "laplace_sample",
    "lookup_m",
    "map_residual",
    "phi_root",
    "read_header",
    "redundancy",
    "redundancy_percent",
    "residual",
    "round_prediction",
    "unmap",
]
