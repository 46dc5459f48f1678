"""Digital divider performing the final softmax normalisation.

The divider is the only non-crossbar arithmetic in STAR's softmax engine:
it divides every LUT output ``e^{x_i - x_max}`` by the denominator produced
by the VMM crossbar.  It is modelled as a sequential (one-quotient-bit-per-
cycle) divider whose cost comes from
:class:`~repro.circuits.components.Divider`.
"""

from __future__ import annotations

import numpy as np

from repro.circuits.components import Divider
from repro.circuits.technology import DEFAULT_TECHNOLOGY, TechnologyNode

__all__ = ["DividerUnit"]


class DividerUnit:
    """Fixed-point divider with configurable quotient precision."""

    def __init__(
        self,
        bits: int = 16,
        quotient_frac_bits: int = 0,
        tech: TechnologyNode = DEFAULT_TECHNOLOGY,
    ) -> None:
        if bits < 4:
            raise ValueError(f"divider width must be >= 4 bits, got {bits}")
        if quotient_frac_bits < 0:
            raise ValueError(
                f"quotient_frac_bits must be >= 0, got {quotient_frac_bits}"
            )
        self.bits = bits
        self.quotient_frac_bits = quotient_frac_bits
        self._cost = Divider.cost(bits, tech)

    # ------------------------------------------------------------------ #
    # functional behaviour
    # ------------------------------------------------------------------ #
    def divide_batch(
        self,
        numerators: np.ndarray,
        denominators: np.ndarray,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Row-wise quotients of a ``(num_rows, n)`` block.

        Each row of ``numerators`` is divided by its entry of
        ``denominators``.  With ``quotient_frac_bits == 0`` the quotient
        keeps full precision; otherwise it is truncated to that many
        fractional bits, modelling a narrow hardware quotient.  Rows with a
        zero (or non-positive) denominator saturate to the uniform
        distribution, mirroring what the hardware's saturation logic would
        emit.  ``out`` (which may alias ``numerators``) receives the
        quotients when every denominator is positive and no truncation is
        configured; callers own the aliasing trade-off.
        """
        block = np.asarray(numerators, dtype=np.float64)
        if block.ndim != 2:
            raise ValueError(
                f"numerators must be a 2D (num_rows, n) block, got shape {block.shape}"
            )
        denoms = np.asarray(denominators, dtype=np.float64).ravel()
        if denoms.size != block.shape[0]:
            raise ValueError(
                f"expected {block.shape[0]} denominators, got {denoms.size}"
            )
        if block.shape[0] > 0 and block.shape[1] < 1:
            raise ValueError("numerator rows must not be empty")
        if block.size == 0:
            return block.copy()
        positive = denoms > 0.0
        if positive.all():
            if out is not None and self.quotient_frac_bits == 0:
                return np.divide(block, denoms[:, None], out=out)
            return self._truncate(block / denoms[:, None])
        safe = np.where(positive, denoms, 1.0)
        quotients = self._truncate(block / safe[:, None])
        # the saturated uniform output is not truncated
        return np.where(positive[:, None], quotients, 1.0 / block.shape[1])

    def _truncate(self, quotients: np.ndarray) -> np.ndarray:
        if self.quotient_frac_bits > 0:
            scale = float(1 << self.quotient_frac_bits)
            quotients = np.floor(quotients * scale) / scale
        return quotients

    # ------------------------------------------------------------------ #
    # costs
    # ------------------------------------------------------------------ #
    def area_um2(self) -> float:
        """Divider area."""
        return self._cost.area_um2

    def power_w(self) -> float:
        """Divider power while active."""
        return self._cost.power_w

    def divide_latency_s(self) -> float:
        """Latency of one division (``bits`` cycles for the sequential divider)."""
        return self._cost.latency_s

    def divide_energy_j(self) -> float:
        """Energy of one division."""
        return self._cost.energy_per_op_j
