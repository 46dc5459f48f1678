"""Baseline CMOS softmax unit (the "1x" reference of the paper's Table I).

The baseline follows the conventional digital softmax datapath that attention
accelerators attach to their matrix-multiply arrays: a comparator tree finds
the row maximum, parallel subtractors compute ``x_i - x_max``, parallel
piecewise-linear exponential units evaluate ``e^{x_i - x_max}``, an adder
tree accumulates the denominator and an array of dividers normalises.  Every
block is sized for full floating-point-equivalent precision (16-bit fixed
point), which is exactly the over-provisioning STAR argues is unnecessary.

The model reports area, power and per-row latency through the shared
:class:`~repro.circuits.components.ComponentCost` tables so that the Table I
comparison (baseline vs Softermax vs STAR's RRAM engine) is apples-to-apples.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.circuits.components import (
    Adder,
    ComponentCost,
    Divider,
    ExponentialUnit,
    MaxComparatorTree,
    Register,
    SRAMBuffer,
    Subtractor,
)
from repro.circuits.energy import EnergyLedger
from repro.circuits.technology import DEFAULT_TECHNOLOGY, TechnologyNode

__all__ = ["CMOSSoftmaxConfig", "CMOSSoftmaxUnit"]


@dataclass(frozen=True)
class CMOSSoftmaxConfig:
    """Sizing of the baseline CMOS softmax unit.

    Attributes
    ----------
    vector_length:
        Length of one softmax row (the sequence length of the attention
        matrix); the paper's Table I uses 128.
    data_bits:
        Internal datapath width.  The baseline keeps 16 bits everywhere,
        emulating the full-precision units of conventional designs.
    parallel_lanes:
        Number of elements processed concurrently by the subtract / exp /
        divide stages.  The baseline provisions one lane per element of a
        128-long row, as the conventional fully-parallel design does.
    tech:
        CMOS technology node.
    """

    vector_length: int = 128
    data_bits: int = 16
    parallel_lanes: int = 128
    tech: TechnologyNode = DEFAULT_TECHNOLOGY

    def __post_init__(self) -> None:
        if self.vector_length < 2:
            raise ValueError(f"vector_length must be >= 2, got {self.vector_length}")
        if not 4 <= self.data_bits <= 32:
            raise ValueError(f"data_bits must be in [4, 32], got {self.data_bits}")
        if self.parallel_lanes < 1:
            raise ValueError(f"parallel_lanes must be >= 1, got {self.parallel_lanes}")

    @property
    def passes_per_row(self) -> int:
        """Sequential passes needed when lanes < vector_length."""
        return -(-self.vector_length // self.parallel_lanes)  # ceil division


class CMOSSoftmaxUnit:
    """Area / power / latency model of the conventional CMOS softmax."""

    name = "CMOS baseline softmax"

    def __init__(self, config: CMOSSoftmaxConfig | None = None) -> None:
        self.config = config or CMOSSoftmaxConfig()
        cfg = self.config
        tech = cfg.tech
        # static blocks
        self._max_tree = MaxComparatorTree.cost(cfg.vector_length, cfg.data_bits, tech)
        self._subtractors = Subtractor.cost(cfg.data_bits, tech).scaled(cfg.parallel_lanes)
        self._exp_units = ExponentialUnit.cost(cfg.data_bits, tech).scaled(cfg.parallel_lanes)
        self._adder_tree = Adder.cost(cfg.data_bits, tech).scaled(max(1, cfg.parallel_lanes - 1))
        self._dividers = Divider.cost(cfg.data_bits, tech).scaled(cfg.parallel_lanes)
        self._registers = Register.cost(cfg.data_bits, tech).scaled(2 * cfg.vector_length)
        self._buffer = SRAMBuffer.cost(2 * cfg.vector_length * cfg.data_bits, tech)
        self._blocks: list[ComponentCost] = [
            self._max_tree,
            self._subtractors,
            self._exp_units,
            self._adder_tree,
            self._dividers,
            self._registers,
            self._buffer,
        ]

    # ------------------------------------------------------------------ #
    # static costs
    # ------------------------------------------------------------------ #
    @property
    def area_um2(self) -> float:
        """Total silicon area of the softmax unit."""
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
        """Latency of one softmax row of ``vector_length`` elements.

        The stages are serial per pass: max tree -> subtract -> exp ->
        adder-tree reduction -> divide; with ``passes_per_row`` passes when
        the lanes cannot cover the full row at once.
        """
        cfg = self.config
        import math

        reduction_depth = max(1, math.ceil(math.log2(max(2, cfg.parallel_lanes))))
        per_pass = (
            self._subtractors.latency_s
            + self._exp_units.latency_s
            + self._adder_tree.latency_s * reduction_depth
            + self._dividers.latency_s
        )
        return self._max_tree.latency_s + cfg.passes_per_row * per_pass

    def row_energy_j(self) -> float:
        """Energy of one softmax row."""
        cfg = self.config
        ledger = self.row_ledger()
        return ledger.total_energy_j

    def row_ledger(self) -> EnergyLedger:
        """Per-component energy/latency ledger for one softmax row."""
        cfg = self.config
        ledger = EnergyLedger()
        passes = cfg.passes_per_row
        ledger.record(
            "max tree", energy_j=self._max_tree.energy_per_op_j, latency_s=self._max_tree.latency_s
        )
        ledger.record(
            "subtractors",
            energy_j=passes * self._subtractors.energy_per_op_j,
            latency_s=passes * self._subtractors.latency_s,
        )
        ledger.record(
            "exp units",
            energy_j=passes * self._exp_units.energy_per_op_j,
            latency_s=passes * self._exp_units.latency_s,
        )
        ledger.record(
            "adder tree",
            energy_j=passes * self._adder_tree.energy_per_op_j,
            latency_s=passes * self._adder_tree.latency_s,
        )
        ledger.record(
            "dividers",
            energy_j=passes * self._dividers.energy_per_op_j,
            latency_s=passes * self._dividers.latency_s,
        )
        ledger.record(
            "registers/buffer",
            energy_j=self._registers.energy_per_op_j + self._buffer.energy_per_op_j,
            latency_s=self._buffer.latency_s,
        )
        for block in self._blocks:
            ledger.record_area(block.name, block.area_um2)
        return ledger

