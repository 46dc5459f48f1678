"""STAR's RRAM softmax engine: CAM/SUB + exponential unit + divider.

This is the paper's central contribution.  The engine processes softmax rows
(rows of the attention-score matrix) as follows:

1. the **CAM/SUB crossbar** quantises the scores, finds ``x_max`` by CAM
   search and produces the non-negative differences ``x_max - x_i``
   (:mod:`repro.core.cam_sub`);
2. the **exponential unit** looks every difference up in the CAM/LUT pair,
   accumulates the per-level histogram in counters and produces the
   denominator with one VMM-crossbar pass (:mod:`repro.core.exponent`);
3. the **divider** normalises each exponential by the denominator
   (:mod:`repro.core.divider`).

:meth:`RRAMSoftmaxEngine.softmax_batch` runs a whole ``(num_rows, seq_len)``
score block through the three stages in pure vectorized NumPy with no
Python-level per-row loop — this is what makes BERT-scale runs (millions of
rows) tractable — and :meth:`~RRAMSoftmaxEngine.softmax` and
:meth:`~RRAMSoftmaxEngine.softmax_row` are views of it.  CAM/SUB search
errors (``config.cam_search_error_rate``) are sampled inside the batched max
search.  With ideal devices the engine is bit-identical to the functional
:class:`repro.nn.softmax_models.FixedPointSoftmax` model.

Cost accounting no longer rides the data path: every functional call
accumulates an :class:`~repro.core.access_stats.AccessStats` value
(``engine.access_stats``), and area / power / latency / energy and the
Table I ledger are derived analytically from stats via
:meth:`energy_j_of` / :meth:`latency_s_of` / :meth:`ledger_of`.
"""

from __future__ import annotations

import numpy as np

from repro.circuits.energy import EnergyLedger
from repro.core.access_stats import AccessStats
from repro.core.cam_sub import CamSubCrossbar
from repro.core.config import SoftmaxEngineConfig
from repro.core.divider import DividerUnit
from repro.core.exponent import ExponentialUnit
from repro.utils.fixed_point import FixedPointFormat
from repro.utils.validation import as_1d_float_array

__all__ = ["RRAMSoftmaxEngine"]


class RRAMSoftmaxEngine:
    """The complete RRAM-crossbar softmax engine."""

    name = "STAR RRAM softmax"

    def __init__(self, config: SoftmaxEngineConfig | None = None) -> None:
        self.config = config or SoftmaxEngineConfig()
        self.cam_sub = CamSubCrossbar(self.config)
        self.exponential = ExponentialUnit(self.config)
        self.divider = DividerUnit(bits=self.config.divider_bits)
        self.rows_processed = 0
        self.access_stats = AccessStats()
        #: LUT reads of each row of the last :meth:`softmax_batch` block
        #: (row length minus its CAM misses), the per-row share of
        #: ``access_stats`` that varies from row to row.
        self.last_lut_reads = np.zeros(0, dtype=np.int64)

    @property
    def fmt(self) -> FixedPointFormat:
        """The fixed-point input format the engine is configured for."""
        return self.config.fmt

    # ------------------------------------------------------------------ #
    # functional behaviour
    # ------------------------------------------------------------------ #
    def softmax_row(self, scores: np.ndarray) -> np.ndarray:
        """Softmax of a single score vector (a one-row :meth:`softmax_batch`)."""
        return self.softmax_batch(as_1d_float_array(scores, "scores")[None, :])[0]

    def softmax_batch(self, scores: np.ndarray) -> np.ndarray:
        """Softmax of every row of a ``(num_rows, seq_len)`` score block.

        One CAM/SUB pass, one exponential-unit pass and one divider pass
        over the whole block, with zero Python per-row loops.  Bit-identical
        to :class:`~repro.nn.softmax_models.FixedPointSoftmax` under ideal
        devices.  NaN scores raise ``ValueError``; ±inf saturate to the
        format's range.  Each row's LUT reads are kept on
        :attr:`last_lut_reads`.
        """
        block = np.asarray(scores, dtype=np.float64)
        if block.ndim != 2:
            raise ValueError(
                f"scores must be a 2D (num_rows, seq_len) block, got shape {block.shape}"
            )
        num_rows, seq_len = block.shape
        if num_rows == 0:
            self.last_lut_reads = np.zeros(0, dtype=np.int64)
            return block.copy()
        if seq_len < 1:
            raise ValueError("score rows must not be empty")

        cam_result = self.cam_sub.process_batch(block)
        exp_result = self.exponential.process_batch(cam_result.difference_codes)
        # the exponentials buffer is private to this call, so the divider may
        # normalise it in place
        probabilities = self.divider.divide_batch(
            exp_result.exponentials, exp_result.denominators, out=exp_result.exponentials
        )

        misses = int(exp_result.misses.sum())
        self.last_lut_reads = seq_len - exp_result.misses
        self.rows_processed += num_rows
        self.access_stats += AccessStats.for_block(
            num_rows,
            seq_len,
            lut_reads=num_rows * seq_len - misses,
            counter_increments=exp_result.counted,
            cam_misses=misses,
        )
        return probabilities

    def softmax(self, x: np.ndarray, axis: int = -1) -> np.ndarray:
        """Softmax along ``axis`` of an arbitrary-rank array.

        Flattens every other axis into a batch for :meth:`softmax_batch`.
        """
        arr = np.asarray(x, dtype=np.float64)
        moved = np.moveaxis(arr, axis, -1)
        out = self.softmax_batch(moved.reshape(-1, moved.shape[-1]))
        return np.moveaxis(out.reshape(moved.shape), -1, axis)

    def __call__(self, x: np.ndarray, axis: int = -1) -> np.ndarray:
        """Alias for :meth:`softmax`, so the engine plugs into the NN layers."""
        return self.softmax(x, axis=axis)

    # ------------------------------------------------------------------ #
    # costs (derived analytically from access statistics)
    # ------------------------------------------------------------------ #
    def area_um2(self) -> float:
        """Total engine area: both crossbar groups plus the divider."""
        return (
            self.cam_sub.area_um2()
            + self.exponential.area_um2()
            + self.divider.area_um2()
        )

    def area_mm2(self) -> float:
        """Total engine area in mm^2."""
        return self.area_um2() * 1e-6

    def stats_for(self, num_rows: int, seq_len: int) -> AccessStats:
        """Idealized access statistics of a ``num_rows x seq_len`` block.

        Uses the closed-form per-row accounting of the paper's cost model
        (every element reads the LUT and bumps a counter); the live
        ``access_stats`` of a functional run additionally reflects observed
        CAM misses.
        """
        if num_rows < 1:
            raise ValueError(f"num_rows must be >= 1, got {num_rows}")
        if seq_len < 1:
            raise ValueError(f"seq_len must be >= 1, got {seq_len}")
        return AccessStats.for_block(num_rows, seq_len)

    def energy_j_of(self, stats: AccessStats) -> float:
        """Total energy of the accesses recorded in ``stats``."""
        return (
            self.cam_sub.energy_j_of(stats)
            + self.exponential.energy_j_of(stats)
            + stats.divides * self.divider.divide_energy_j()
        )

    def latency_s_of(self, stats: AccessStats, parallel_dividers: int = 4) -> float:
        """Latency of the accesses in ``stats`` on one engine (serial rows).

        The divider stage is provisioned with a small number of parallel
        sequential dividers; divisions of one row overlap with the CAM/LUT
        processing of the next, so only the residual (non-overlapped) share
        is charged here.
        """
        if parallel_dividers < 1:
            raise ValueError(f"parallel_dividers must be >= 1, got {parallel_dividers}")
        cam_sub = self.cam_sub.latency_s_of(stats)
        exponent = self.exponential.latency_s_of(stats)
        divide_passes = -(-stats.divides // parallel_dividers)
        divide = divide_passes * self.divider.divide_latency_s()
        overlap = min(divide, cam_sub + exponent)
        return cam_sub + exponent + divide - 0.5 * overlap

    def ledger_of(self, stats: AccessStats) -> EnergyLedger:
        """Per-component ledger of the accesses in ``stats`` (Table I shape)."""
        ledger = EnergyLedger()
        ledger.record(
            "CAM/SUB crossbar",
            energy_j=self.cam_sub.energy_j_of(stats),
            latency_s=self.cam_sub.latency_s_of(stats),
        )
        ledger.record_area("CAM/SUB crossbar", self.cam_sub.area_um2())
        ledger.record(
            "exponential unit (CAM+LUT+VMM+counters)",
            energy_j=self.exponential.energy_j_of(stats),
            latency_s=self.exponential.latency_s_of(stats),
        )
        ledger.record_area(
            "exponential unit (CAM+LUT+VMM+counters)", self.exponential.area_um2()
        )
        ledger.record(
            "divider",
            energy_j=stats.divides * self.divider.divide_energy_j(),
            latency_s=stats.divides * self.divider.divide_latency_s(),
        )
        ledger.record_area("divider", self.divider.area_um2())
        return ledger

    def row_latency_s(self, seq_len: int, parallel_dividers: int = 4) -> float:
        """Latency of one softmax row of ``seq_len`` elements."""
        return self.latency_s_of(self.stats_for(1, seq_len), parallel_dividers)

    def row_energy_j(self, seq_len: int) -> float:
        """Energy of one softmax row of ``seq_len`` elements."""
        return self.energy_j_of(self.stats_for(1, seq_len))

    def batch_latency_s(self, num_rows: int, seq_len: int) -> float:
        """Modeled latency of a score block on one serially-fed engine."""
        return self.latency_s_of(self.stats_for(num_rows, seq_len))

    def batch_energy_j(self, num_rows: int, seq_len: int) -> float:
        """Modeled energy of a score block."""
        return self.energy_j_of(self.stats_for(num_rows, seq_len))

    def power_w(self, seq_len: int = 128) -> float:
        """Average power while continuously processing rows of ``seq_len``."""
        return self.row_energy_j(seq_len) / self.row_latency_s(seq_len)

    def element_energy_j(self) -> float:
        """Average energy per softmax element at a representative row length."""
        seq_len = 128
        return self.row_energy_j(seq_len) / seq_len

    def row_ledger(self, seq_len: int) -> EnergyLedger:
        """Per-component ledger for one softmax row (used by Table I)."""
        return self.ledger_of(self.stats_for(1, seq_len))

