"""Behavioural RRAM (resistive RAM) cell model.

The model captures the aspects of a memristive cell that matter for an
architecture-level simulator such as STAR:

* a finite conductance window ``[g_min, g_max]`` (the inverse of the
  high-resistance / low-resistance states, HRS / LRS);
* a finite number of programmable conductance levels per cell
  (``bits_per_cell``);
* read voltage and per-access read energy / latency;
* programming (SET/RESET) pulse energy and latency, used by the
  write-cost model when crossbars are (re)programmed.

The default numbers follow the HfO2-based devices commonly assumed in the
PIM-accelerator literature (ISAAC, PipeLayer, NeuroSim examples):
``R_on = 100 kOhm``, ``R_off = 10 MOhm``, 2 bits per cell, 0.3 V read
voltage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.validation import require_positive

__all__ = ["RRAMDeviceConfig", "RRAMDevice"]


@dataclass(frozen=True)
class RRAMDeviceConfig:
    """Static parameters of an RRAM cell.

    Attributes
    ----------
    r_on_ohm / r_off_ohm:
        Low-resistance and high-resistance state resistances.
    bits_per_cell:
        Number of bits stored per device; the number of programmable
        conductance levels is ``2 ** bits_per_cell``.
    read_voltage_v:
        Voltage applied on the wordline during a read / compute access.
    read_pulse_s:
        Duration of one read pulse.
    write_pulse_s:
        Duration of one SET/RESET programming pulse.
    write_voltage_v:
        Programming voltage.
    write_energy_j:
        Energy of a single programming pulse (per cell).
    """

    r_on_ohm: float = 1.0e5
    r_off_ohm: float = 1.0e7
    bits_per_cell: int = 2
    read_voltage_v: float = 0.3
    read_pulse_s: float = 5.0e-9
    write_pulse_s: float = 50.0e-9
    write_voltage_v: float = 2.0
    write_energy_j: float = 1.0e-13

    def __post_init__(self) -> None:
        require_positive(self.r_on_ohm, "r_on_ohm")
        require_positive(self.r_off_ohm, "r_off_ohm")
        if self.r_off_ohm <= self.r_on_ohm:
            raise ValueError(
                f"r_off_ohm ({self.r_off_ohm}) must exceed r_on_ohm ({self.r_on_ohm})"
            )
        if self.bits_per_cell < 1 or self.bits_per_cell > 6:
            raise ValueError(f"bits_per_cell must be in [1, 6], got {self.bits_per_cell}")
        require_positive(self.read_voltage_v, "read_voltage_v")
        require_positive(self.read_pulse_s, "read_pulse_s")
        require_positive(self.write_pulse_s, "write_pulse_s")
        require_positive(self.write_voltage_v, "write_voltage_v")
        require_positive(self.write_energy_j, "write_energy_j")

    @property
    def g_max_s(self) -> float:
        """Maximum conductance (LRS), in siemens."""
        return 1.0 / self.r_on_ohm

    @property
    def g_min_s(self) -> float:
        """Minimum conductance (HRS), in siemens."""
        return 1.0 / self.r_off_ohm

    @property
    def num_levels(self) -> int:
        """Number of programmable conductance levels."""
        return 1 << self.bits_per_cell


class RRAMDevice:
    """Maps digital cell values to conductances and models per-access costs.

    The conductance levels are spaced linearly between ``g_min`` and
    ``g_max`` — the standard assumption of behavioural PIM simulators, and
    the one NeuroSim uses for its "linear" device mode.
    """

    def __init__(self, config: RRAMDeviceConfig | None = None) -> None:
        self.config = config or RRAMDeviceConfig()
        levels = self.config.num_levels
        self._conductance_levels = np.linspace(
            self.config.g_min_s, self.config.g_max_s, levels
        )

    def level_to_conductance(self, levels: np.ndarray | int) -> np.ndarray:
        """Convert integer cell levels to conductances in siemens."""
        level_arr = np.asarray(levels, dtype=np.int64)
        if np.any(level_arr < 0) or np.any(level_arr >= self.config.num_levels):
            raise ValueError(
                f"cell levels must be in [0, {self.config.num_levels - 1}]"
            )
        return self._conductance_levels[level_arr]

    def conductance_to_level(self, conductance: np.ndarray | float) -> np.ndarray:
        """Quantise conductances to the nearest programmable level index."""
        g = np.asarray(conductance, dtype=np.float64)
        g = np.clip(g, self.config.g_min_s, self.config.g_max_s)
        span = self.config.g_max_s - self.config.g_min_s
        frac = (g - self.config.g_min_s) / span
        return np.rint(frac * (self.config.num_levels - 1)).astype(np.int64)

    # ------------------------------------------------------------------ #
    # per-access costs
    # ------------------------------------------------------------------ #
    def read_energy_j(self, conductance_s: float | np.ndarray) -> np.ndarray:
        """Energy dissipated in the cell during one read pulse, ``V^2 * G * t``."""
        g = np.asarray(conductance_s, dtype=np.float64)
        return (self.config.read_voltage_v**2) * g * self.config.read_pulse_s

    def read_latency_s(self) -> float:
        """Latency of one read pulse."""
        return self.config.read_pulse_s

    def write_energy_j(self, num_pulses: int = 1) -> float:
        """Energy of programming one cell with ``num_pulses`` pulses."""
        if num_pulses < 1:
            raise ValueError(f"num_pulses must be >= 1, got {num_pulses}")
        return self.config.write_energy_j * num_pulses

    def write_latency_s(self, num_pulses: int = 1) -> float:
        """Latency of programming one cell with ``num_pulses`` pulses."""
        if num_pulses < 1:
            raise ValueError(f"num_pulses must be >= 1, got {num_pulses}")
        return self.config.write_pulse_s * num_pulses
