"""Write-and-verify programming model for RRAM arrays.

Crossbar contents in STAR are written once (weights, CAM codewords, LUT
entries are all static for a given model and precision), so programming cost
is a one-time overhead rather than part of the steady-state pipeline.  The
model here estimates how many program/verify iterations are needed to reach
a target conductance tolerance given the device's programming variation, and
from that the total programming time and energy of an array — numbers the
ablation benchmarks report to show the overhead is negligible compared with
inference time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.rram.device import RRAMDevice, RRAMDeviceConfig
from repro.utils.validation import require_in_range, require_positive

__all__ = ["ProgrammingConfig", "ProgrammingResult", "WriteVerifyProgrammer"]


@dataclass(frozen=True)
class ProgrammingConfig:
    """Parameters of the write-verify loop.

    Attributes
    ----------
    tolerance:
        Acceptable relative conductance error after programming.
    per_pulse_sigma:
        Relative conductance error introduced by a single blind pulse.
        Each verify iteration roughly halves the residual error.
    max_iterations:
        Upper bound on program/verify iterations per cell.
    verify_read_s:
        Duration of the verify read after each pulse.
    """

    tolerance: float = 0.02
    per_pulse_sigma: float = 0.15
    max_iterations: int = 16
    verify_read_s: float = 10.0e-9

    def __post_init__(self) -> None:
        require_in_range(self.tolerance, 1e-6, 1.0, "tolerance")
        require_in_range(self.per_pulse_sigma, 1e-6, 1.0, "per_pulse_sigma")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
        require_positive(self.verify_read_s, "verify_read_s")


@dataclass(frozen=True)
class ProgrammingResult:
    """Summary of programming one array."""

    num_cells: int
    iterations_per_cell: int
    total_latency_s: float
    total_energy_j: float

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ProgrammingResult(cells={self.num_cells}, "
            f"iters/cell={self.iterations_per_cell}, "
            f"latency={self.total_latency_s:.3e}s, energy={self.total_energy_j:.3e}J)"
        )


class WriteVerifyProgrammer:
    """Estimates the cost of programming an RRAM array with write-verify."""

    def __init__(
        self,
        device: RRAMDeviceConfig | None = None,
        config: ProgrammingConfig | None = None,
    ) -> None:
        self.device = RRAMDevice(device or RRAMDeviceConfig())
        self.config = config or ProgrammingConfig()

    def iterations_required(self) -> int:
        """Program/verify iterations needed to reach the target tolerance.

        Each iteration reduces the residual relative error by roughly 2x
        (half-interval targeting), so the count is
        ``ceil(log2(per_pulse_sigma / tolerance))`` clamped to at least one
        pulse and at most ``max_iterations``.
        """
        cfg = self.config
        if cfg.per_pulse_sigma <= cfg.tolerance:
            return 1
        needed = math.ceil(math.log2(cfg.per_pulse_sigma / cfg.tolerance)) + 1
        return int(min(max(needed, 1), cfg.max_iterations))

    def program_array(self, rows: int, cols: int, row_parallel: bool = True) -> ProgrammingResult:
        """Cost of programming a ``rows x cols`` array.

        Parameters
        ----------
        rows / cols:
            Array dimensions (physical cells).
        row_parallel:
            Whether all cells of a row are programmed simultaneously (the
            usual assumption); otherwise programming is fully serial.
        """
        if rows < 1 or cols < 1:
            raise ValueError(f"array dimensions must be positive, got {rows}x{cols}")
        iters = self.iterations_required()
        num_cells = rows * cols
        pulse_time = self.device.config.write_pulse_s + self.config.verify_read_s
        if row_parallel:
            total_latency = rows * iters * pulse_time
        else:
            total_latency = num_cells * iters * pulse_time
        verify_energy = (
            self.device.config.read_voltage_v**2
            / self.device.config.r_on_ohm
            * self.config.verify_read_s
        )
        per_cell_energy = iters * (self.device.config.write_energy_j + verify_energy)
        total_energy = num_cells * per_cell_energy
        return ProgrammingResult(
            num_cells=num_cells,
            iterations_per_cell=iters,
            total_latency_s=total_latency,
            total_energy_j=total_energy,
        )

