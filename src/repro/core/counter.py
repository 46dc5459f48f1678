"""Per-level counter bank of the exponential unit (Fig. 2, "Counter").

While each ``x_i - x_max`` magnitude is looked up in the CAM/LUT pair, its
match vector also increments a counter attached to the matching row.  After
the whole row has been processed the counter values form a histogram —
"how many inputs landed on each representable level" — and the VMM crossbar
turns that histogram into the softmax denominator in a single analog pass.

The bank is a plain digital structure and is modelled for cost only (its
cost comes from :class:`~repro.circuits.components.Counter`): the
exponential unit computes the saturating histograms a block leaves in it
directly (:meth:`repro.core.exponent.ExponentialUnit.process_batch`).
"""

from __future__ import annotations

from repro.circuits.components import Counter
from repro.circuits.technology import DEFAULT_TECHNOLOGY, TechnologyNode

__all__ = ["CounterBank"]


class CounterBank:
    """A bank of ``num_counters`` up-counters of ``bits`` bits each."""

    def __init__(
        self,
        num_counters: int,
        bits: int,
        tech: TechnologyNode = DEFAULT_TECHNOLOGY,
    ) -> None:
        if num_counters < 1:
            raise ValueError(f"num_counters must be >= 1, got {num_counters}")
        if bits < 1:
            raise ValueError(f"bits must be >= 1, got {bits}")
        self.num_counters = num_counters
        self.bits = bits
        self._cost = Counter.cost(bits, tech)

    @property
    def max_count(self) -> int:
        """Saturation value of one counter."""
        return (1 << self.bits) - 1

    # ------------------------------------------------------------------ #
    # costs
    # ------------------------------------------------------------------ #
    def area_um2(self) -> float:
        """Total area of the counter bank."""
        return self.num_counters * self._cost.area_um2

    def increment_energy_j(self) -> float:
        """Energy of one counter increment."""
        return self._cost.energy_per_op_j

    def power_w(self) -> float:
        """Peak power with one counter toggling per cycle plus leakage share.

        Only one counter increments per CAM search, so dynamic power is a
        single counter's; the rest contribute a small static share (modelled
        as 2 % of their dynamic figure).
        """
        dynamic = self._cost.power_w
        static = 0.02 * self._cost.power_w * (self.num_counters - 1)
        return dynamic + static
