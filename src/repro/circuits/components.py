"""Area / power / latency models of the digital CMOS building blocks.

These are the blocks that surround the RRAM arrays (counters, divider,
registers, OR-merge logic) and the blocks that make up the two CMOS softmax
baselines of Table I (adders, comparators, multipliers, exponential units,
SRAM buffers).

Every figure is calibrated at the 32 nm / 1 GHz reference point used by the
ISAAC and PipeLayer cost tables, with per-bit (or per-bit-squared for the
multiplier) constants taken from published standard-cell synthesis results.
Other nodes are obtained through :class:`~repro.circuits.technology.TechnologyNode`
scaling.  Absolute numbers carry the usual architecture-model error bars;
the Table I experiment only relies on the *relative* costs.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

from repro.circuits.technology import DEFAULT_TECHNOLOGY, TechnologyNode
from repro.utils.validation import require_positive

__all__ = [
    "ComponentCost",
    "Adder",
    "Subtractor",
    "Comparator",
    "Multiplier",
    "Divider",
    "Register",
    "Counter",
    "OrGateArray",
    "SRAMBuffer",
    "ExponentialUnit",
    "MaxComparatorTree",
]


@dataclass(frozen=True)
class ComponentCost:
    """Area, power and latency of one digital component instance."""

    name: str
    area_um2: float
    power_w: float
    latency_s: float

    def __post_init__(self) -> None:
        require_positive(self.area_um2, "area_um2")
        require_positive(self.power_w, "power_w")
        require_positive(self.latency_s, "latency_s")

    @property
    def energy_per_op_j(self) -> float:
        """Energy of one operation at full activity."""
        return self.power_w * self.latency_s

    def scaled(self, count: int) -> "ComponentCost":
        """Cost of ``count`` identical instances operating in parallel."""
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        return ComponentCost(
            name=f"{count}x {self.name}",
            area_um2=self.area_um2 * count,
            power_w=self.power_w * count,
            latency_s=self.latency_s,
        )


def _cost(
    name: str,
    bits: int,
    area_per_bit_um2: float,
    power_per_bit_w: float,
    cycles: float,
    tech: TechnologyNode,
) -> ComponentCost:
    """Shared helper: linear-in-bits component at the reference node."""
    if bits < 1:
        raise ValueError(f"{name} width must be >= 1 bit, got {bits}")
    return ComponentCost(
        name=f"{bits}-bit {name}",
        area_um2=tech.scale_area_um2(area_per_bit_um2 * bits),
        power_w=tech.scale_power_w(power_per_bit_w * bits),
        latency_s=cycles * tech.cycle_time_s,
    )


class Adder:
    """Ripple/carry-select adder, one cycle."""

    @staticmethod
    def cost(bits: int, tech: TechnologyNode = DEFAULT_TECHNOLOGY) -> ComponentCost:
        """Cost of an n-bit adder."""
        return _cost("adder", bits, area_per_bit_um2=4.5, power_per_bit_w=1.5e-6, cycles=1.0, tech=tech)


class Subtractor:
    """Two's-complement subtractor (adder + inverters), one cycle."""

    @staticmethod
    def cost(bits: int, tech: TechnologyNode = DEFAULT_TECHNOLOGY) -> ComponentCost:
        """Cost of an n-bit subtractor."""
        return _cost("subtractor", bits, area_per_bit_um2=5.0, power_per_bit_w=1.7e-6, cycles=1.0, tech=tech)


class Comparator:
    """Magnitude comparator, one cycle."""

    @staticmethod
    def cost(bits: int, tech: TechnologyNode = DEFAULT_TECHNOLOGY) -> ComponentCost:
        """Cost of an n-bit comparator."""
        return _cost("comparator", bits, area_per_bit_um2=3.0, power_per_bit_w=1.0e-6, cycles=1.0, tech=tech)


class Register:
    """Flip-flop register, clocked every cycle."""

    @staticmethod
    def cost(bits: int, tech: TechnologyNode = DEFAULT_TECHNOLOGY) -> ComponentCost:
        """Cost of an n-bit register."""
        return _cost("register", bits, area_per_bit_um2=6.0, power_per_bit_w=1.2e-6, cycles=1.0, tech=tech)


class Counter:
    """Up-counter (register plus incrementer), one cycle per count."""

    @staticmethod
    def cost(bits: int, tech: TechnologyNode = DEFAULT_TECHNOLOGY) -> ComponentCost:
        """Cost of an n-bit counter."""
        return _cost("counter", bits, area_per_bit_um2=9.5, power_per_bit_w=2.2e-6, cycles=1.0, tech=tech)


class OrGateArray:
    """Array of 2-input OR gates merging CAM match vectors (Fig. 1, step 3)."""

    @staticmethod
    def cost(num_gates: int, tech: TechnologyNode = DEFAULT_TECHNOLOGY) -> ComponentCost:
        """Cost of ``num_gates`` OR gates switching each cycle."""
        if num_gates < 1:
            raise ValueError(f"num_gates must be >= 1, got {num_gates}")
        return ComponentCost(
            name=f"{num_gates}x OR gate",
            area_um2=tech.scale_area_um2(1.2 * num_gates),
            power_w=tech.scale_power_w(0.25e-6 * num_gates),
            latency_s=0.1 * tech.cycle_time_s,
        )


class Multiplier:
    """Array multiplier; area and power grow with the product of operand widths."""

    @staticmethod
    def cost(
        bits_a: int,
        bits_b: int | None = None,
        tech: TechnologyNode = DEFAULT_TECHNOLOGY,
    ) -> ComponentCost:
        """Cost of a ``bits_a x bits_b`` multiplier (square if ``bits_b`` omitted)."""
        if bits_b is None:
            bits_b = bits_a
        if bits_a < 1 or bits_b < 1:
            raise ValueError("multiplier operand widths must be >= 1 bit")
        cells = bits_a * bits_b
        return ComponentCost(
            name=f"{bits_a}x{bits_b} multiplier",
            area_um2=tech.scale_area_um2(6.0 * cells),
            power_w=tech.scale_power_w(2.0e-6 * cells),
            latency_s=1.0 * tech.cycle_time_s,
        )


class Divider:
    """Sequential (non-restoring) divider: one cycle per quotient bit."""

    @staticmethod
    def cost(bits: int, tech: TechnologyNode = DEFAULT_TECHNOLOGY) -> ComponentCost:
        """Cost of an n-bit divider; latency is ``bits`` cycles."""
        if bits < 1:
            raise ValueError(f"divider width must be >= 1 bit, got {bits}")
        return ComponentCost(
            name=f"{bits}-bit divider",
            area_um2=tech.scale_area_um2(22.0 * bits),
            power_w=tech.scale_power_w(4.5e-6 * bits),
            latency_s=bits * tech.cycle_time_s,
        )


class SRAMBuffer:
    """On-chip SRAM buffer (6T cells plus peripheral overhead)."""

    @staticmethod
    def cost(bits: int, tech: TechnologyNode = DEFAULT_TECHNOLOGY) -> ComponentCost:
        """Cost of a ``bits``-bit SRAM macro; latency is one access cycle."""
        if bits < 1:
            raise ValueError(f"SRAM size must be >= 1 bit, got {bits}")
        # 0.17 um^2 per bit cell plus 20% periphery at 32 nm
        area = 0.17 * bits * 1.2
        # dynamic read power dominated by bitline swing, approx 20 uW per KB at 1 GHz
        power = 20.0e-6 * (bits / 8192.0) + 1.0e-6
        return ComponentCost(
            name=f"{bits}-bit SRAM",
            area_um2=tech.scale_area_um2(area),
            power_w=tech.scale_power_w(power),
            latency_s=1.0 * tech.cycle_time_s,
        )


class ExponentialUnit:
    """CMOS exponential function unit used by the baseline softmax.

    Modelled as a piecewise-linear interpolator: a range-reduction subtractor,
    a 64-entry coefficient LUT in SRAM, one multiplier and one adder — the
    structure used by the floating-point softmax blocks that Softermax
    compares against.
    """

    @staticmethod
    def cost(bits: int, tech: TechnologyNode = DEFAULT_TECHNOLOGY) -> ComponentCost:
        """Cost of one exponential unit operating on ``bits``-bit inputs."""
        if bits < 1:
            raise ValueError(f"exponential unit width must be >= 1 bit, got {bits}")
        lut = SRAMBuffer.cost(64 * 2 * bits, tech)
        mult = Multiplier.cost(bits, bits, tech)
        add = Adder.cost(bits, tech)
        sub = Subtractor.cost(bits, tech)
        area = lut.area_um2 + mult.area_um2 + add.area_um2 + sub.area_um2
        power = lut.power_w + mult.power_w + add.power_w + sub.power_w
        return ComponentCost(
            name=f"{bits}-bit exp unit",
            area_um2=area,
            power_w=power,
            latency_s=3.0 * tech.cycle_time_s,
        )


class MaxComparatorTree:
    """Tree of comparators finding the maximum of ``n`` values.

    The CMOS baseline softmax needs this for the ``x_i - x_max`` stage; STAR
    replaces it with the CAM search.
    """

    @staticmethod
    def cost(
        num_inputs: int,
        bits: int,
        tech: TechnologyNode = DEFAULT_TECHNOLOGY,
    ) -> ComponentCost:
        """Cost of a comparator tree over ``num_inputs`` values of ``bits`` bits."""
        if num_inputs < 2:
            raise ValueError(f"a max tree needs at least 2 inputs, got {num_inputs}")
        num_comparators = num_inputs - 1
        depth = math.ceil(math.log2(num_inputs))
        single = Comparator.cost(bits, tech)
        mux = Register.cost(bits, tech)  # a 2:1 mux + latch per comparator, similar cost
        area = num_comparators * (single.area_um2 + mux.area_um2)
        power = num_comparators * (single.power_w + mux.power_w)
        return ComponentCost(
            name=f"max tree ({num_inputs} x {bits}-bit)",
            area_um2=area,
            power_w=power,
            latency_s=depth * tech.cycle_time_s,
        )
