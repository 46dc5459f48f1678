"""Softermax: the optimised CMOS softmax baseline of Table I.

Softermax (Stevens et al., 2021) is a hardware/software co-design that makes
the CMOS softmax cheap by (a) replacing ``e^x`` with ``2^x`` so the
exponential becomes an integer shift plus a small fractional correction,
(b) computing the running maximum online while the scores stream out of the
matrix-multiply array (no separate max pass over a buffered row), and
(c) using low-precision (8-bit) arithmetic throughout.

The paper's Table I places Softermax at 0.33x the area and 0.12x the power
of the conventional CMOS baseline; this model rebuilds those savings from
the component level: the expensive per-lane exponential units and full-width
dividers of the baseline are replaced with shifters, small adders and one
shared narrow divider, and the datapath width drops from 16 to 8 bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.circuits.components import (
    Adder,
    ComponentCost,
    Comparator,
    Divider,
    Register,
    SRAMBuffer,
    Subtractor,
)
from repro.circuits.energy import EnergyLedger
from repro.circuits.technology import DEFAULT_TECHNOLOGY, TechnologyNode

__all__ = ["SoftermaxConfig", "SoftermaxUnit"]


def _shifter_cost(bits: int, tech: TechnologyNode) -> ComponentCost:
    """Barrel shifter implementing ``2^x`` for the integer part of x."""
    if bits < 1:
        raise ValueError(f"shifter width must be >= 1 bit, got {bits}")
    stages = max(1, math.ceil(math.log2(bits)))
    return ComponentCost(
        name=f"{bits}-bit barrel shifter",
        area_um2=tech.scale_area_um2(2.2 * bits * stages),
        power_w=tech.scale_power_w(0.6e-6 * bits * stages),
        latency_s=1.0 * tech.cycle_time_s,
    )


@dataclass(frozen=True)
class SoftermaxConfig:
    """Sizing of the Softermax unit.

    Attributes
    ----------
    vector_length:
        Softmax row length (128 in Table I).
    data_bits:
        Datapath width; Softermax operates at low precision (10 bits here:
        8-bit inputs with two guard bits through the running accumulation).
    parallel_lanes:
        Elements processed concurrently; provisioned to match the
        fully-parallel baseline's row throughput (one lane per element of a
        128-long row).
    tech:
        CMOS technology node.
    """

    vector_length: int = 128
    data_bits: int = 10
    parallel_lanes: int = 128
    tech: TechnologyNode = DEFAULT_TECHNOLOGY

    def __post_init__(self) -> None:
        if self.vector_length < 2:
            raise ValueError(f"vector_length must be >= 2, got {self.vector_length}")
        if not 4 <= self.data_bits <= 16:
            raise ValueError(f"data_bits must be in [4, 16], got {self.data_bits}")
        if self.parallel_lanes < 1:
            raise ValueError(f"parallel_lanes must be >= 1, got {self.parallel_lanes}")

    @property
    def passes_per_row(self) -> int:
        """Streaming passes needed to cover one row."""
        return -(-self.vector_length // self.parallel_lanes)


class SoftermaxUnit:
    """Area / power / latency model of the Softermax softmax unit."""

    name = "Softermax"

    def __init__(self, config: SoftermaxConfig | None = None) -> None:
        self.config = config or SoftermaxConfig()
        cfg = self.config
        tech = cfg.tech
        # online max: one comparator + register per lane
        self._online_max = ComponentCost(
            name="online max",
            area_um2=cfg.parallel_lanes
            * (Comparator.cost(cfg.data_bits, tech).area_um2 + Register.cost(cfg.data_bits, tech).area_um2),
            power_w=cfg.parallel_lanes
            * (Comparator.cost(cfg.data_bits, tech).power_w + Register.cost(cfg.data_bits, tech).power_w),
            latency_s=tech.cycle_time_s,
        )
        self._subtractors = Subtractor.cost(cfg.data_bits, tech).scaled(cfg.parallel_lanes)
        self._shifters = _shifter_cost(cfg.data_bits, tech).scaled(cfg.parallel_lanes)
        # small per-lane LUT for the fractional part of 2^x
        self._frac_luts = SRAMBuffer.cost(32 * cfg.data_bits, tech).scaled(cfg.parallel_lanes)
        self._accumulators = Adder.cost(cfg.data_bits + 4, tech).scaled(cfg.parallel_lanes)
        # per-lane normalising dividers so normalisation keeps up with the lanes
        self._dividers = Divider.cost(cfg.data_bits, tech).scaled(cfg.parallel_lanes)
        self._output_regs = Register.cost(cfg.data_bits, tech).scaled(cfg.parallel_lanes)
        self._buffer = SRAMBuffer.cost(cfg.vector_length * cfg.data_bits, tech)
        self._blocks: list[ComponentCost] = [
            self._online_max,
            self._subtractors,
            self._shifters,
            self._frac_luts,
            self._accumulators,
            self._dividers,
            self._output_regs,
            self._buffer,
        ]

    # ------------------------------------------------------------------ #
    # static costs
    # ------------------------------------------------------------------ #
    @property
    def area_um2(self) -> float:
        """Total silicon area of the Softermax unit."""
        return sum(block.area_um2 for block in self._blocks)

    @property
    def area_mm2(self) -> float:
        """Total area in mm^2."""
        return self.area_um2 * 1e-6

    @property
    def power_w(self) -> float:
        """Peak dynamic power with every block active."""
        return sum(block.power_w for block in self._blocks)

    # ------------------------------------------------------------------ #
    # per-row execution
    # ------------------------------------------------------------------ #
    def row_latency_s(self) -> float:
        """Latency of one softmax row (streaming, overlapped with the MACs)."""
        cfg = self.config
        per_pass = (
            self._online_max.latency_s
            + self._subtractors.latency_s
            + self._shifters.latency_s
            + self._accumulators.latency_s
        )
        # each lane normalises its own element once the row sum is known
        return cfg.passes_per_row * (per_pass + self._dividers.latency_s)

    def row_energy_j(self) -> float:
        """Energy of one softmax row."""
        return self.row_ledger().total_energy_j

    def row_ledger(self) -> EnergyLedger:
        """Per-component energy/latency ledger for one softmax row."""
        cfg = self.config
        passes = cfg.passes_per_row
        ledger = EnergyLedger()
        ledger.record(
            "online max",
            energy_j=passes * self._online_max.energy_per_op_j,
            latency_s=passes * self._online_max.latency_s,
        )
        ledger.record(
            "subtractors",
            energy_j=passes * self._subtractors.energy_per_op_j,
            latency_s=passes * self._subtractors.latency_s,
        )
        ledger.record(
            "shifters (2^x)",
            energy_j=passes * self._shifters.energy_per_op_j,
            latency_s=passes * self._shifters.latency_s,
        )
        ledger.record(
            "fractional LUTs",
            energy_j=passes * self._frac_luts.energy_per_op_j,
            latency_s=0.0,
        )
        ledger.record(
            "accumulators",
            energy_j=passes * self._accumulators.energy_per_op_j,
            latency_s=passes * self._accumulators.latency_s,
        )
        ledger.record(
            "dividers",
            energy_j=passes * self._dividers.energy_per_op_j,
            latency_s=passes * self._dividers.latency_s,
        )
        ledger.record(
            "output registers / row buffer",
            energy_j=self._output_regs.energy_per_op_j + self._buffer.energy_per_op_j,
            latency_s=self._buffer.latency_s,
        )
        for block in self._blocks:
            ledger.record_area(block.name, block.area_um2)
        return ledger

