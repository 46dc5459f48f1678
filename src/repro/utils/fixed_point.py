"""Fixed-point number formats used throughout the STAR softmax engine.

The STAR paper encodes softmax inputs (attention scores after the
``x_i - x_max`` subtraction) as *unsigned* fixed-point values because the
subtraction result is always non-positive and the sign bit can therefore be
dropped (Section II of the paper).  The required formats reported by the
paper are:

======== ============= ============== ==========
Dataset  Total bits    Integer bits   Frac bits
======== ============= ============== ==========
CNEWS    8             6              2
MRPC     9             6              3
CoLA     7             5              2
======== ============= ============== ==========

This module provides :class:`FixedPointFormat`, a small value type that
captures the integer/fractional split, plus quantisation helpers that are
shared by the CAM/SUB crossbar, the exponential LUT and the bit-width
analysis code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FixedPointFormat",
    "quantize",
    "dequantize_codes",
    "quantization_error",
    "sqnr_db",
    "CNEWS_FORMAT",
    "MRPC_FORMAT",
    "COLA_FORMAT",
]


@dataclass(frozen=True)
class FixedPointFormat:
    """An unsigned or signed fixed-point format ``Q(integer_bits.frac_bits)``.

    Parameters
    ----------
    integer_bits:
        Number of bits before the binary point (excluding the sign bit).
    frac_bits:
        Number of bits after the binary point.
    signed:
        When ``True`` one additional sign bit is prepended and the value
        range becomes symmetric around zero.  The STAR softmax engine uses
        ``signed=False`` for the magnitude of ``x_i - x_max`` because the
        sign is known to be negative.

    Examples
    --------
    >>> fmt = FixedPointFormat(6, 2)
    >>> fmt.total_bits
    8
    >>> fmt.resolution
    0.25
    >>> fmt.max_value
    63.75
    """

    integer_bits: int
    frac_bits: int
    signed: bool = False

    def __post_init__(self) -> None:
        if self.integer_bits < 0:
            raise ValueError(f"integer_bits must be >= 0, got {self.integer_bits}")
        if self.frac_bits < 0:
            raise ValueError(f"frac_bits must be >= 0, got {self.frac_bits}")
        if self.integer_bits + self.frac_bits == 0:
            raise ValueError("a fixed-point format needs at least one bit")

    # ------------------------------------------------------------------ #
    # basic properties
    # ------------------------------------------------------------------ #
    @property
    def total_bits(self) -> int:
        """Total storage bits including the sign bit when signed."""
        return self.integer_bits + self.frac_bits + (1 if self.signed else 0)

    @property
    def magnitude_bits(self) -> int:
        """Bits used for the magnitude (excludes the sign bit)."""
        return self.integer_bits + self.frac_bits

    @property
    def resolution(self) -> float:
        """Smallest representable step (one LSB)."""
        return 2.0 ** (-self.frac_bits)

    @property
    def num_levels(self) -> int:
        """Number of representable magnitude levels."""
        return 1 << self.magnitude_bits

    @property
    def max_value(self) -> float:
        """Largest representable value."""
        return (self.num_levels - 1) * self.resolution

    @property
    def min_value(self) -> float:
        """Smallest representable value (0 for unsigned formats)."""
        if self.signed:
            return -self.max_value
        return 0.0

    @property
    def signed_max_value(self) -> float:
        """Largest score representable when the code space is used as offset binary.

        STAR stores signed attention scores in an unsigned CAM code space by
        biasing with half the range (offset binary), so the positive side
        reaches ``(num_levels/2 - 1) * resolution`` — e.g. +31.75 for the
        8-bit CNEWS format.
        """
        return (self.num_levels // 2 - 1) * self.resolution

    @property
    def signed_min_value(self) -> float:
        """Most negative score representable in the offset-binary code space."""
        return -(self.num_levels // 2) * self.resolution

    # ------------------------------------------------------------------ #
    # conversions
    # ------------------------------------------------------------------ #
    def to_code(self, values: np.ndarray | float) -> np.ndarray:
        """Quantise real values to integer codes (round-to-nearest, saturate)."""
        arr = np.asarray(values, dtype=np.float64)
        scaled = np.rint(arr / self.resolution)
        max_code = self.num_levels - 1
        min_code = -max_code if self.signed else 0
        return np.clip(scaled, min_code, max_code).astype(np.int64)

    def from_code(self, codes: np.ndarray | int) -> np.ndarray:
        """Convert integer codes back to real values."""
        return np.asarray(codes, dtype=np.float64) * self.resolution

    def quantize(self, values: np.ndarray | float) -> np.ndarray:
        """Round values to the representable grid (round-to-nearest, saturate)."""
        return self.from_code(self.to_code(values))

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        sign = "s" if self.signed else "u"
        return f"Q{sign}{self.integer_bits}.{self.frac_bits}"


# Canonical formats from the paper's bit-width table (Section II).
CNEWS_FORMAT = FixedPointFormat(integer_bits=6, frac_bits=2)
MRPC_FORMAT = FixedPointFormat(integer_bits=6, frac_bits=3)
COLA_FORMAT = FixedPointFormat(integer_bits=5, frac_bits=2)


def quantize(values: np.ndarray, fmt: FixedPointFormat) -> np.ndarray:
    """Functional form of :meth:`FixedPointFormat.quantize`."""
    return fmt.quantize(values)


def dequantize_codes(codes: np.ndarray, fmt: FixedPointFormat) -> np.ndarray:
    """Functional form of :meth:`FixedPointFormat.from_code`."""
    return fmt.from_code(codes)


def quantization_error(values: np.ndarray, fmt: FixedPointFormat) -> np.ndarray:
    """Element-wise quantisation error ``q(x) - x``."""
    values = np.asarray(values, dtype=np.float64)
    return fmt.quantize(values) - values


def sqnr_db(reference: np.ndarray, quantized: np.ndarray) -> float:
    """Signal-to-quantisation-noise ratio in dB.

    Returns ``inf`` when the quantised signal equals the reference exactly.
    """
    reference = np.asarray(reference, dtype=np.float64)
    quantized = np.asarray(quantized, dtype=np.float64)
    if reference.shape != quantized.shape:
        raise ValueError(
            f"shape mismatch: reference {reference.shape} vs quantized {quantized.shape}"
        )
    noise_power = float(np.mean((reference - quantized) ** 2))
    signal_power = float(np.mean(reference**2))
    if noise_power == 0.0:
        return float("inf")
    if signal_power == 0.0:
        return float("-inf")
    return 10.0 * math.log10(signal_power / noise_power)
