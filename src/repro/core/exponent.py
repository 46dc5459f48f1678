"""The exponential unit of the softmax engine (Fig. 2 of the paper).

Three crossbars and a counter bank cooperate:

* a **CAM crossbar** stores every representable ``x_max - x_i`` magnitude
  code; searching a difference code returns a one-hot match vector (a miss
  means the difference is so large that its exponential rounds to zero);
* a **LUT crossbar** stores ``round(e^{-d} * 2^m) * 2^{-m}`` per row; the
  match vector selects the row, and the read-out word *is* the exponential
  of the input;
* the **counter bank** accumulates how many inputs matched each row;
* a **VMM crossbar** storing the very same exponential values turns the
  final counter histogram into the softmax denominator
  ``sum_j e^{x_j - x_max}`` in a single analog pass.

With ideal devices the unit's numerics are exactly those of
:class:`repro.nn.softmax_models.FixedPointSoftmax`; the noise configuration
lets the E9 ablation perturb the LUT readout and the analog summation.

:meth:`ExponentialUnit.process_batch` runs a whole ``(num_rows, n)`` code
block and is functionally *pure* with ideal noise: the histograms are
computed per call instead of accumulating in shared counter registers, so
concurrent calls on one unit cannot corrupt each other's numerics.  With
non-ideal noise the random stream is inherently stateful, so Monte-Carlo
sweeps should use one unit per worker.  The
:class:`~repro.core.counter.CounterBank` and crossbar objects are the
cost/area models; the engine-level
:class:`~repro.core.access_stats.AccessStats` is the access accounting.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from repro.arch.area import CrossbarAreaModel
from repro.core.access_stats import AccessStats
from repro.core.config import SoftmaxEngineConfig
from repro.core.counter import CounterBank
from repro.rram.cam import CAMConfig, CAMCrossbar
from repro.rram.converters import ADC, DAC
from repro.rram.lut import LUTConfig, LUTCrossbar, exponential_lut_entries
from repro.rram.noise import NoiseModel

__all__ = ["ExponentBatchResult", "ExponentialUnit"]


class ExponentBatchResult:
    """Output of the exponential unit for a ``(num_rows, n)`` code block.

    ``exponentials`` and ``histograms`` keep one row per input row;
    ``denominators`` / ``misses`` are per-row vectors.  ``counted`` is the
    total number of counter increments the block caused (elements landing on
    a level with a non-zero LUT entry).  ``histograms`` is computed lazily
    (and cached) from the codes unless the unit had to materialize it for
    counter-saturation handling — the softmax hot path never reads it.
    """

    def __init__(
        self,
        unit: "ExponentialUnit",
        codes: np.ndarray,
        exponentials: np.ndarray,
        denominators: np.ndarray,
        misses: np.ndarray,
        counted: int,
        histograms: np.ndarray | None = None,
    ) -> None:
        self._unit = unit
        self._codes = codes
        self.exponentials = exponentials
        self.denominators = denominators
        self.misses = misses
        self.counted = counted
        if histograms is not None:
            self.histograms = histograms

    @cached_property
    def histograms(self) -> np.ndarray:
        """Saturating per-row counter histograms (matches per level)."""
        return self._unit._histograms(self._codes)


class ExponentialUnit:
    """Functional and cost model of the CAM + LUT + counter + VMM unit."""

    def __init__(self, config: SoftmaxEngineConfig | None = None) -> None:
        self.config = config or SoftmaxEngineConfig()
        cfg = self.config
        fmt = cfg.fmt

        # The CAM search of this unit is modelled ideal on the functional
        # path: a matchline flip here selects a neighbouring LUT row, which
        # is indistinguishable from the analog LUT/VMM read perturbations
        # that cfg.noise already injects, so only cfg.cam_search_error_rate
        # of the CAM/SUB stage (where a flip moves x_max) is simulated
        # explicitly.
        self.cam = CAMCrossbar(
            CAMConfig(rows=cfg.exp_rows, bits=fmt.magnitude_bits, seed=cfg.cam_seed + 1)
        )
        stored_levels = min(cfg.exp_rows, fmt.num_levels)
        self._stored_levels = stored_levels
        self.cam.program_codes(np.arange(stored_levels, dtype=np.int64))

        self.lut = LUTCrossbar(
            LUTConfig(
                rows=cfg.exp_rows,
                value_bits=cfg.lut_value_bits,
                frac_bits=cfg.lut_frac_bits,
            )
        )
        arguments = -np.arange(stored_levels, dtype=np.float64) * fmt.resolution
        self._lut_values = exponential_lut_entries(arguments, cfg.lut_frac_bits)
        self.lut.program_values(self._lut_values)
        # one trailing zero entry so a clipped gather maps CAM misses to 0.0
        self._lut_padded = np.append(self._lut_values, 0.0)

        # Only levels whose LUT entry is non-zero need a counter: rows whose
        # exponential already rounds to zero contribute nothing to the
        # denominator, so a match there never has to be counted.  With m = 4
        # this is ~16-32 counters instead of one per CAM row.
        self._active_levels = int(np.count_nonzero(self._lut_values))
        self.counters = CounterBank(
            num_counters=max(1, self._active_levels), bits=cfg.counter_bits
        )
        self.noise = NoiseModel(cfg.noise)
        self._area_model = CrossbarAreaModel()
        # the VMM crossbar's ADC must cover the sum's dynamic range; 10 bits
        # is enough for sequence lengths up to the counters' capacity
        self._vmm_adc = ADC(bits=10)
        self._vmm_dac = DAC(bits=cfg.counter_bits)

    # ------------------------------------------------------------------ #
    # functional behaviour
    # ------------------------------------------------------------------ #
    @property
    def lut_values(self) -> np.ndarray:
        """The quantised exponential table (index = difference code)."""
        return self._lut_values.copy()

    @property
    def stored_levels(self) -> int:
        """Number of difference codes the CAM/LUT pair stores."""
        return self._stored_levels

    @property
    def active_levels(self) -> int:
        """Levels with a non-zero LUT entry (the ones that own a counter)."""
        return self._active_levels

    def _validated_codes(self, difference_codes: np.ndarray) -> np.ndarray:
        codes = np.asarray(difference_codes)
        if not np.issubdtype(codes.dtype, np.integer):
            codes = codes.astype(np.int64)
        if codes.ndim != 2:
            raise ValueError(
                f"difference_codes must be a 2D (num_rows, n) block, got shape {codes.shape}"
            )
        if codes.size and np.any(codes < 0):
            raise ValueError("difference codes must be non-negative magnitudes")
        return codes

    def _lookup(self, codes: np.ndarray) -> np.ndarray:
        """LUT exponentials for a code array of any shape (misses read 0.0).

        A clipped gather: every out-of-range code lands on the padded zero
        entry, exactly what a CAM miss reads out.
        """
        return self._lut_padded.take(codes, mode="clip")

    def _perturbed(self, values: np.ndarray) -> np.ndarray:
        """Analog read noise, skipping the defensive copy on the ideal path."""
        if self.noise.config.read_noise_sigma > 0.0:
            return self.noise.perturb_current(values)
        return values

    def _histograms(self, codes: np.ndarray) -> np.ndarray:
        """Saturating per-row counter histograms of a ``(num_rows, n)`` block.

        Pure computation of what the counter bank holds after the block:
        matches on levels whose LUT entry is zero are never counted (they
        would multiply a zero in the summation), and each counter saturates
        at its width.
        """
        counts = self.cam.search_histograms(codes, self.counters.num_counters)
        return np.minimum(counts, self.counters.max_count)

    def process_batch(self, difference_codes: np.ndarray) -> ExponentBatchResult:
        """Exponentials and denominators for a ``(num_rows, n)`` code block.

        Fully vectorized — per-row histograms come from one offset
        ``np.bincount`` (:meth:`repro.rram.cam.CAMCrossbar.search_histograms`)
        and denominators from one multiply-sum.  Under ideal noise every
        intermediate is an exact multiple of the LUT resolution, so each
        denominator is exactly ``min(histogram, max_count) @ LUT`` whatever
        the summation order.  Under non-ideal noise the perturbations are
        drawn for the whole block at once: one deviate per nonzero LUT
        readout in C order (zero readouts carry no current and stay exactly
        zero), then one per row for the denominators.
        """
        codes = self._validated_codes(difference_codes)
        num_rows, seq_len = codes.shape
        if num_rows and seq_len < 1:
            raise ValueError("difference_codes rows must not be empty")
        if num_rows == 0:
            return ExponentBatchResult(
                unit=self,
                codes=codes,
                exponentials=np.zeros_like(codes, dtype=np.float64),
                denominators=np.zeros(0, dtype=np.float64),
                misses=np.zeros(0, dtype=np.int64),
                counted=0,
                histograms=np.zeros((0, self.counters.num_counters), dtype=np.int64),
            )

        raw = self._lookup(codes)
        # stats without per-element bookkeeping: a non-zero readout is
        # exactly an element that bumps a counter (code < active_levels)
        if int(codes.max()) < self._stored_levels:
            misses = np.zeros(num_rows, dtype=np.int64)
        else:
            misses = np.count_nonzero(codes >= self._stored_levels, axis=-1)
        counted = int(np.count_nonzero(raw))

        histograms: np.ndarray | None = None
        if seq_len <= self.counters.max_count:
            # no counter can saturate, so the VMM result equals the plain sum
            # of the (clean) LUT readouts: every term is an exact multiple of
            # 2^-m, making this bit-identical to the histogram @ LUT product
            denominators = raw.sum(axis=-1)
        else:
            histograms = self._histograms(codes)
            denominators = (
                histograms * self._lut_values[None, : self.counters.num_counters]
            ).sum(axis=-1)

        exponentials = self._perturbed(raw)
        denominators = self._perturbed(denominators)

        return ExponentBatchResult(
            unit=self,
            codes=codes,
            exponentials=exponentials,
            denominators=denominators,
            misses=misses,
            counted=counted,
            histograms=histograms,
        )

    # ------------------------------------------------------------------ #
    # costs
    # ------------------------------------------------------------------ #
    def area_um2(self) -> float:
        """CAM + LUT + VMM crossbars, counters, and the VMM converters."""
        cfg = self.config
        cam_area = self._area_model.cam_crossbar_area_um2(
            cfg.exp_rows, cfg.fmt.magnitude_bits
        )
        lut_area = self._area_model.lut_crossbar_area_um2(cfg.exp_rows, cfg.lut_value_bits)
        vmm_area = self._area_model.vmm_crossbar_area_um2(
            cfg.exp_rows, cfg.lut_value_bits, adc=self._vmm_adc, dac=self._vmm_dac, adc_share=cfg.lut_value_bits
        )
        return cam_area + lut_area + vmm_area + self.counters.area_um2()

    def element_latency_s(self) -> float:
        """Latency of one element: CAM search then LUT read (counter overlaps)."""
        return self.cam.search_latency_s() + self.lut.read_latency_s()

    def element_energy_j(self) -> float:
        """Energy of one element: CAM search + LUT read + counter increment."""
        return (
            self.cam.search_energy_j()
            + self.lut.read_energy_j()
            + self.counters.increment_energy_j()
        )

    def summation_latency_s(self) -> float:
        """Latency of the single VMM pass producing the denominator."""
        return (
            self._vmm_dac.latency_s
            + self.lut.config.device.read_pulse_s
            + self._vmm_adc.latency_s
        )

    def summation_energy_j(self) -> float:
        """Energy of the single VMM pass producing the denominator."""
        cfg = self.config
        v = self.lut.config.device.read_voltage_v
        g_mid = 0.5 * (
            1.0 / self.lut.config.device.r_on_ohm + 1.0 / self.lut.config.device.r_off_ohm
        )
        array = cfg.exp_rows * cfg.lut_value_bits * v * v * g_mid * self.lut.config.device.read_pulse_s
        dacs = cfg.exp_rows * self._vmm_dac.energy_per_conversion_j
        adc = self._vmm_adc.energy_per_conversion_j
        return array + dacs + adc

    def energy_j_of(self, stats: AccessStats) -> float:
        """Energy of the accesses recorded in ``stats``."""
        return (
            stats.exp_cam_searches * self.cam.search_energy_j()
            + stats.lut_reads * self.lut.read_energy_j()
            + stats.counter_increments * self.counters.increment_energy_j()
            + stats.vmm_passes * self.summation_energy_j()
        )

    def latency_s_of(self, stats: AccessStats) -> float:
        """Serial latency of the accesses recorded in ``stats``.

        Counter increments overlap the CAM searches, so only the search,
        LUT-read and VMM-pass times appear.
        """
        return (
            stats.exp_cam_searches * self.cam.search_latency_s()
            + stats.lut_reads * self.lut.read_latency_s()
            + stats.vmm_passes * self.summation_latency_s()
        )

    def row_latency_s(self, seq_len: int) -> float:
        """Latency of the exponential stage for one row of ``seq_len`` elements."""
        if seq_len < 1:
            raise ValueError(f"seq_len must be >= 1, got {seq_len}")
        return self.latency_s_of(AccessStats.for_block(1, seq_len))

    def row_energy_j(self, seq_len: int) -> float:
        """Energy of the exponential stage for one row of ``seq_len`` elements."""
        if seq_len < 1:
            raise ValueError(f"seq_len must be >= 1, got {seq_len}")
        return self.energy_j_of(AccessStats.for_block(1, seq_len))

    def power_w(self) -> float:
        """Average power while continuously processing elements."""
        return self.element_energy_j() / self.element_latency_s()
