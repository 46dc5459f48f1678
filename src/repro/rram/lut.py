"""RRAM look-up-table (LUT) crossbar.

The LUT crossbar of STAR's exponential unit stores, one per row, the
pre-computed exponentials of every representable ``x_i - x_max`` magnitude:

    ``WL_i = round(e^{x_i} * 2^m) * 2^{-m}``   (Fig. 2 of the paper, m = 4)

A row is selected by the one-hot match vector coming from the companion CAM
crossbar; the bitline sense amplifiers then read out the stored binary word,
which *is* the exponential result.  No ADC is required because the readout
is digital (one bit per bitline).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.rram.converters import SenseAmplifier
from repro.rram.device import RRAMDeviceConfig
from repro.utils.validation import require_positive

__all__ = ["LUTConfig", "LUTCrossbar", "exponential_lut_entries"]


@dataclass(frozen=True)
class LUTConfig:
    """Geometry of a LUT crossbar.

    Attributes
    ----------
    rows:
        Number of table entries (one per wordline).
    value_bits:
        Width of each stored word; one RRAM cell per bit.
    frac_bits:
        Number of fractional bits in the stored fixed-point values; the
        paper's Fig. 2 uses ``m = 4`` (``round(e^x * 2^m) * 2^-m``).
    device:
        RRAM cell parameters used for energy accounting.
    """

    rows: int = 256
    value_bits: int = 18
    frac_bits: int = 4
    device: RRAMDeviceConfig = field(default_factory=RRAMDeviceConfig)

    def __post_init__(self) -> None:
        if self.rows < 1:
            raise ValueError(f"rows must be >= 1, got {self.rows}")
        if not 1 <= self.value_bits <= 64:
            raise ValueError(f"value_bits must be in [1, 64], got {self.value_bits}")
        if self.frac_bits < 0:
            raise ValueError(f"frac_bits must be >= 0, got {self.frac_bits}")

    @property
    def num_cells(self) -> int:
        """Total RRAM cells in the LUT array."""
        return self.rows * self.value_bits

    @property
    def resolution(self) -> float:
        """Value of one LSB of the stored words."""
        return 2.0 ** (-self.frac_bits)

    @property
    def max_value(self) -> float:
        """Largest representable stored value."""
        return ((1 << self.value_bits) - 1) * self.resolution


def exponential_lut_entries(
    arguments: np.ndarray, frac_bits: int = 4
) -> np.ndarray:
    """Quantised exponentials exactly as STAR pre-loads them.

    Implements ``round(e^{x} * 2^m) * 2^{-m}`` from Fig. 2 of the paper for
    each argument ``x`` (the arguments are the non-positive ``x_i - x_max``
    values, but the formula is applied verbatim to whatever is passed in).
    """
    if frac_bits < 0:
        raise ValueError(f"frac_bits must be >= 0, got {frac_bits}")
    args = np.asarray(arguments, dtype=np.float64)
    scale = float(1 << frac_bits)
    return np.rint(np.exp(args) * scale) / scale


class LUTCrossbar:
    """A read-only table of fixed-point values stored in an RRAM array."""

    def __init__(self, config: LUTConfig | None = None) -> None:
        self.config = config or LUTConfig()
        self.sense_amp = SenseAmplifier()
        self._values: np.ndarray | None = None

    # ------------------------------------------------------------------ #
    # programming
    # ------------------------------------------------------------------ #
    @property
    def is_programmed(self) -> bool:
        """Whether table entries have been written."""
        return self._values is not None

    @property
    def values(self) -> np.ndarray:
        """All stored (quantised) table values, by row."""
        if self._values is None:
            raise RuntimeError("LUT has not been programmed yet")
        return self._values.copy()

    def program_values(self, values: np.ndarray) -> None:
        """Store one fixed-point value per row (quantised to the LUT grid)."""
        arr = np.asarray(values, dtype=np.float64).ravel()
        cfg = self.config
        if arr.size > cfg.rows:
            raise ValueError(f"{arr.size} values exceed the {cfg.rows} LUT rows")
        if arr.size == 0:
            raise ValueError("cannot program an empty value list")
        if np.any(arr < 0):
            raise ValueError("LUT values must be non-negative")
        if np.any(arr > cfg.max_value):
            raise ValueError(
                f"values exceed the representable maximum {cfg.max_value} "
                f"for {cfg.value_bits} bits with {cfg.frac_bits} fractional bits"
            )
        quantised = np.rint(arr / cfg.resolution) * cfg.resolution
        self._values = quantised

    # ------------------------------------------------------------------ #
    # per-access costs
    # ------------------------------------------------------------------ #
    def read_latency_s(self) -> float:
        """Latency of one wordline-selected digital read."""
        return self.config.device.read_pulse_s + self.sense_amp.latency_s

    def read_energy_j(self) -> float:
        """Energy of reading one row (all bitlines sensed in parallel)."""
        cfg = self.config
        v = cfg.device.read_voltage_v
        g_mid = 0.5 * (1.0 / cfg.device.r_on_ohm + 1.0 / cfg.device.r_off_ohm)
        cell_energy = cfg.value_bits * v * v * g_mid * cfg.device.read_pulse_s
        sense_energy = cfg.value_bits * self.sense_amp.energy_per_sense_j
        return cell_energy + sense_energy

    def area_um2(self, cell_area_um2: float = 0.2) -> float:
        """Array area: cells plus one sense amplifier per bitline."""
        require_positive(cell_area_um2, "cell_area_um2")
        return (
            self.config.num_cells * cell_area_um2
            + self.config.value_bits * self.sense_amp.area_um2
        )
