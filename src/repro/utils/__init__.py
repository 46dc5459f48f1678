"""Shared utilities: fixed-point formats, statistics, units and validation."""

from repro.utils.fixed_point import (
    CNEWS_FORMAT,
    COLA_FORMAT,
    MRPC_FORMAT,
    FixedPointFormat,
    dequantize_codes,
    quantization_error,
    quantize,
    sqnr_db,
)
from repro.utils.stats import (
    geometric_mean,
    kl_divergence,
    percentile_range,
    relative_error,
    summarize,
)
from repro.utils.units import format_si, to_giga_ops_per_watt

__all__ = [
    "FixedPointFormat",
    "CNEWS_FORMAT",
    "MRPC_FORMAT",
    "COLA_FORMAT",
    "quantize",
    "dequantize_codes",
    "quantization_error",
    "sqnr_db",
    "summarize",
    "percentile_range",
    "geometric_mean",
    "relative_error",
    "kl_divergence",
    "format_si",
    "to_giga_ops_per_watt",
]
