"""CMOS technology-node scaling for the digital cost models.

All digital component costs in :mod:`repro.circuits.components` are
calibrated at a 32 nm reference node (the node used by the ISAAC / PipeLayer
cost tables that STAR's comparisons build on).  This module provides simple
first-order scaling of area and power to other nodes so that experiments can
be run at e.g. 45 nm or 22 nm if desired.

Scaling assumptions (classic constant-field scaling, adequate for the
comparative studies this package targets):

* area scales with the square of the feature-size ratio;
* dynamic power scales roughly linearly with the feature-size ratio at a
  fixed frequency (capacitance down, voltage nearly flat at these nodes);
* latency of a synthesised block scales linearly with the feature size.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.validation import require_positive

__all__ = ["TechnologyNode", "REFERENCE_NODE_NM", "DEFAULT_TECHNOLOGY"]

REFERENCE_NODE_NM = 32.0


@dataclass(frozen=True)
class TechnologyNode:
    """A CMOS process node with scaling helpers relative to 32 nm.

    Attributes
    ----------
    feature_nm:
        Drawn feature size in nanometres.
    supply_v:
        Nominal supply voltage.
    clock_hz:
        Clock frequency assumed for the synthesised digital blocks; the
        PIM-accelerator literature (and hence our calibration) uses 1 GHz.
    """

    feature_nm: float = 32.0
    supply_v: float = 0.9
    clock_hz: float = 1.0e9

    def __post_init__(self) -> None:
        require_positive(self.feature_nm, "feature_nm")
        require_positive(self.supply_v, "supply_v")
        require_positive(self.clock_hz, "clock_hz")

    @property
    def linear_ratio(self) -> float:
        """Feature size relative to the 32 nm reference."""
        return self.feature_nm / REFERENCE_NODE_NM

    @property
    def area_scale(self) -> float:
        """Multiplier applied to 32 nm area figures."""
        return self.linear_ratio**2

    @property
    def power_scale(self) -> float:
        """Multiplier applied to 32 nm power figures (fixed frequency)."""
        return self.linear_ratio

    @property
    def cycle_time_s(self) -> float:
        """One clock period."""
        return 1.0 / self.clock_hz

    def scale_area_um2(self, area_um2_at_32nm: float) -> float:
        """Scale a 32 nm area figure to this node."""
        return area_um2_at_32nm * self.area_scale

    def scale_power_w(self, power_w_at_32nm: float) -> float:
        """Scale a 32 nm power figure to this node."""
        return power_w_at_32nm * self.power_scale


DEFAULT_TECHNOLOGY = TechnologyNode()
