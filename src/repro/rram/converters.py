"""Data converters and analog peripherals for RRAM crossbars.

An analog crossbar needs a fence of mixed-signal circuits around it:

* **DAC** — drives the wordlines with voltages proportional to the digital
  input vector (in STAR's MatMul engine the input is streamed bit-serially,
  so a 1-bit DAC / wordline driver suffices; the Softmax engine's VMM
  crossbar receives multi-bit counter values and uses a multi-bit DAC).
* **ADC** — converts the accumulated bitline current back to a digital code.
  The MatMul engine follows ReTransformer and uses 5-bit ADCs.
* **Sense amplifier (SA)** — a 1-bit comparator used on CAM matchlines and
  LUT bitlines, much cheaper than a full ADC.
* **Sample & hold (S&H)** — holds the bitline current while the (shared)
  ADC is multiplexed across columns.

Area / power / latency constants follow the values commonly used in the PIM
literature (ISAAC, PipeLayer, NeuroSim at 32 nm), scaled with resolution for
the ADC (area and power grow roughly exponentially with bit count for SAR
ADCs at these speeds).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.validation import require_positive

__all__ = ["ADC", "DAC", "SenseAmplifier", "SampleAndHold"]


@dataclass(frozen=True)
class ADC:
    """Successive-approximation ADC model.

    The default 8-bit reference point (area 3000 um^2, 2 mW at 1.28 GS/s)
    matches the ISAAC/NeuroSim assumptions; other resolutions are scaled by
    ``2 ** (bits - 8)`` for area/power and linearly for latency, which is the
    standard first-order SAR scaling used in architecture papers.
    """

    bits: int = 5
    reference_bits: int = 8
    reference_area_um2: float = 3000.0
    reference_power_w: float = 2.0e-3
    conversion_time_s: float = 1.0e-9

    def __post_init__(self) -> None:
        if not 1 <= self.bits <= 16:
            raise ValueError(f"ADC bits must be in [1, 16], got {self.bits}")
        require_positive(self.reference_area_um2, "reference_area_um2")
        require_positive(self.reference_power_w, "reference_power_w")
        require_positive(self.conversion_time_s, "conversion_time_s")

    @property
    def num_levels(self) -> int:
        """Number of output codes."""
        return 1 << self.bits

    @property
    def area_um2(self) -> float:
        """Area scaled from the 8-bit reference design."""
        return self.reference_area_um2 * 2.0 ** (self.bits - self.reference_bits)

    @property
    def power_w(self) -> float:
        """Power scaled from the 8-bit reference design."""
        return self.reference_power_w * 2.0 ** (self.bits - self.reference_bits)

    @property
    def latency_s(self) -> float:
        """One conversion; SAR ADCs need one cycle per bit."""
        return self.conversion_time_s * self.bits / self.reference_bits * self.reference_bits

    @property
    def energy_per_conversion_j(self) -> float:
        """Energy of a single conversion."""
        return self.power_w * self.latency_s

    def quantize(self, values: np.ndarray, full_scale: float) -> np.ndarray:
        """Quantise analog values in ``[0, full_scale]`` to ADC codes.

        Values outside the range saturate, modelling ADC clipping.  Accepts
        arrays of any shape — the batched crossbar backend passes whole
        ``(batch, cols)`` current blocks through one call.
        """
        require_positive(full_scale, "full_scale")
        arr = np.asarray(values, dtype=np.float64)
        codes = np.rint(arr / full_scale * (self.num_levels - 1))
        return np.clip(codes, 0, self.num_levels - 1).astype(np.int64)

    def _convert_chain(
        self, values: np.ndarray, full_scale: float, low_code: int, out: np.ndarray | None
    ) -> np.ndarray:
        """Shared quantise/dequantise chain, optionally fully in place."""
        require_positive(full_scale, "full_scale")
        arr = np.asarray(values, dtype=np.float64)
        max_code = self.num_levels - 1
        if out is None:
            out = np.empty_like(arr)
        np.multiply(arr, max_code / full_scale, out=out)
        np.rint(out, out=out)
        np.clip(out, low_code, max_code, out=out)
        np.multiply(out, full_scale / max_code, out=out)
        return out

    def convert(
        self, values: np.ndarray, full_scale: float, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Quantise and immediately dequantise (the value seen downstream).

        Equivalent to mapping :meth:`quantize`'s codes back to
        ``code / (num_levels - 1) * full_scale`` up to floating-point
        association (the scaling is fused into one multiply per direction),
        skipping the integer round-trip; with ``out=`` no temporaries are
        allocated.  Both matter on the batched crossbar hot path.
        """
        return self._convert_chain(values, full_scale, 0, out)

    def convert_signed(
        self, values: np.ndarray, full_scale: float, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Sign-magnitude conversion: ``sign(v) * convert(|v|, full_scale)``.

        Differential crossbars convert the magnitude of the (signed) column
        current difference and reapply the sign.  ``rint`` rounds half to
        even symmetrically and clipping is symmetric, so this fused form is
        value-identical to the explicit sign/abs/convert sequence.
        """
        return self._convert_chain(values, full_scale, -(self.num_levels - 1), out)


@dataclass(frozen=True)
class DAC:
    """Wordline driver / DAC model.

    A 1-bit "DAC" is simply a wordline driver; multi-bit DACs scale linearly
    in area and power with resolution at these small bit counts.
    """

    bits: int = 1
    area_um2_per_bit: float = 0.17
    power_w_per_bit: float = 0.5e-6
    latency_s: float = 0.5e-9

    def __post_init__(self) -> None:
        if not 1 <= self.bits <= 16:
            raise ValueError(f"DAC bits must be in [1, 16], got {self.bits}")
        require_positive(self.area_um2_per_bit, "area_um2_per_bit")
        require_positive(self.power_w_per_bit, "power_w_per_bit")
        require_positive(self.latency_s, "latency_s")

    @property
    def num_levels(self) -> int:
        """Number of distinct drive voltages."""
        return 1 << self.bits

    @property
    def area_um2(self) -> float:
        """Area of one DAC."""
        return self.area_um2_per_bit * self.bits

    @property
    def power_w(self) -> float:
        """Power of one DAC while driving."""
        return self.power_w_per_bit * self.bits

    @property
    def energy_per_conversion_j(self) -> float:
        """Energy of driving one value onto a wordline."""
        return self.power_w * self.latency_s

    def drive(self, codes: np.ndarray, v_read: float) -> np.ndarray:
        """Convert digital codes to wordline voltages in ``[0, v_read]``.

        Element-wise over arrays of any shape; the batched crossbar backend
        drives a whole ``(batch, rows)`` code block in one call.
        """
        require_positive(v_read, "v_read")
        arr = np.asarray(codes, dtype=np.float64)
        max_code = self.num_levels - 1
        clipped = np.clip(arr, 0, max_code)
        return clipped / max_code * v_read


@dataclass(frozen=True)
class SenseAmplifier:
    """1-bit current sense amplifier used on CAM matchlines and LUT bitlines."""

    area_um2: float = 15.0
    power_w: float = 5.0e-6
    latency_s: float = 0.5e-9
    threshold_a: float = 1.0e-6

    def __post_init__(self) -> None:
        require_positive(self.area_um2, "area_um2")
        require_positive(self.power_w, "power_w")
        require_positive(self.latency_s, "latency_s")
        require_positive(self.threshold_a, "threshold_a")

    @property
    def energy_per_sense_j(self) -> float:
        """Energy of one sensing operation."""
        return self.power_w * self.latency_s

    def sense(self, currents: np.ndarray) -> np.ndarray:
        """Threshold bitline/matchline currents into digital 0/1."""
        arr = np.asarray(currents, dtype=np.float64)
        return (arr >= self.threshold_a).astype(np.int64)


@dataclass(frozen=True)
class SampleAndHold:
    """Sample-and-hold buffer between a bitline and a time-shared ADC."""

    area_um2: float = 10.0
    power_w: float = 1.0e-6
    latency_s: float = 0.2e-9

    def __post_init__(self) -> None:
        require_positive(self.area_um2, "area_um2")
        require_positive(self.power_w, "power_w")
        require_positive(self.latency_s, "latency_s")

    @property
    def energy_per_sample_j(self) -> float:
        """Energy of holding one sample."""
        return self.power_w * self.latency_s
