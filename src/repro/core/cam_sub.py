"""The CAM/SUB crossbar: STAR's ``x_i - x_max`` stage (Fig. 1 of the paper).

One RRAM crossbar is used in a time-multiplexed manner for two jobs:

1. **CAM phase — find the maximum.**  Every representable score level is
   stored on one wordline, in *descending* order.  Each input ``x_i`` is
   searched against all wordlines in parallel; its matchline one-hot vector
   marks the row holding its value.  OR gates merge the match vectors of all
   inputs, and because the stored levels are descending, the first '1' in
   the merged vector is the row of ``x_max``.
2. **SUB phase — subtract.**  For each input, the crossbar is driven with
   the input's match vector as wordline voltages and a negative voltage on
   the ``x_max`` row; the source-line output is then ``x_i - x_max``.

:meth:`CamSubCrossbar.process_batch` runs both phases over a whole
``(num_rows, seq_len)`` score block with no Python per-row loop: the per-row
maxima come from one batched :meth:`repro.rram.cam.CAMCrossbar.
search_max_codes` call, which also samples the CAM search errors configured
by :attr:`~repro.core.config.SoftmaxEngineConfig.cam_search_error_rate`, and
the SUB phase is one broadcast subtraction in the integer code domain.

Latency / energy / area of the 512 x 18 crossbar, its matchline sense
amplifiers and the OR-merge logic are accounted per access and can be
derived for any amount of work from an
:class:`~repro.core.access_stats.AccessStats` value.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from repro.arch.area import CrossbarAreaModel
from repro.circuits.components import OrGateArray, Register
from repro.circuits.technology import DEFAULT_TECHNOLOGY
from repro.core.access_stats import AccessStats
from repro.core.config import SoftmaxEngineConfig
from repro.rram.cam import CAMConfig, CAMCrossbar
from repro.utils.fixed_point import FixedPointFormat

__all__ = ["CamSubBatchResult", "CamSubCrossbar"]


class CamSubBatchResult:
    """Output of one CAM/SUB pass over a ``(num_rows, seq_len)`` score block.

    ``max_values`` (the quantised ``x_max``) and ``max_rows`` (the CAM row
    holding it; levels are stored in descending order) have shape
    ``(num_rows,)``.  ``difference_codes`` holds the non-negative magnitudes
    ``x_max - x_i`` in units of one LSB; ``differences`` is the same on the
    quantisation grid, dequantised lazily (and cached) — the softmax hot
    path only consumes the codes.
    """

    def __init__(
        self,
        fmt: FixedPointFormat,
        max_codes: np.ndarray,
        difference_codes: np.ndarray,
    ) -> None:
        self._fmt = fmt
        self.max_rows = fmt.num_levels - 1 - max_codes
        self.max_values = (max_codes - fmt.num_levels // 2) * fmt.resolution
        self.difference_codes = difference_codes

    @cached_property
    def differences(self) -> np.ndarray:
        """Non-negative magnitudes ``x_max - x_i`` on the quantisation grid."""
        return self.difference_codes * self._fmt.resolution


class CamSubCrossbar:
    """Functional and cost model of the CAM/SUB crossbar."""

    def __init__(self, config: SoftmaxEngineConfig | None = None) -> None:
        self.config = config or SoftmaxEngineConfig()
        fmt = self.config.fmt
        cam_config = CAMConfig(
            rows=self.config.cam_sub_rows,
            bits=fmt.magnitude_bits,
            search_error_rate=self.config.cam_search_error_rate,
            seed=self.config.cam_seed,
        )
        self.cam = CAMCrossbar(cam_config)
        # store every representable level in DESCENDING order (Fig. 1):
        # row 0 holds the largest code, so the first merged match is x_max.
        self._codes_descending = np.arange(fmt.num_levels - 1, -1, -1, dtype=np.int64)
        self.cam.program_codes(self._codes_descending)
        self._area_model = CrossbarAreaModel()
        self._or_gates = OrGateArray.cost(self.config.cam_sub_rows, DEFAULT_TECHNOLOGY)
        self._result_register = Register.cost(self.config.cam_sub_rows, DEFAULT_TECHNOLOGY)

    # ------------------------------------------------------------------ #
    # functional behaviour
    # ------------------------------------------------------------------ #
    def process_batch(self, scores: np.ndarray) -> CamSubBatchResult:
        """Run the CAM and SUB phases over a ``(num_rows, seq_len)`` block.

        Scores are clipped to the offset-binary signed range of the CAM code
        space (e.g. [-32, +31.75] for the 8-bit CNEWS format) and rounded
        onto the fixed-point grid, matching
        :class:`repro.nn.softmax_models.FixedPointSoftmax`; ±inf saturate and
        NaN raises ``ValueError``.  The per-row maxima come from one batched
        :meth:`~repro.rram.cam.CAMCrossbar.search_max_codes` call and the SUB
        phase is a single broadcast subtraction.
        """
        block = np.asarray(scores, dtype=np.float64)
        if block.ndim != 2:
            raise ValueError(f"scores must be a 2D (num_rows, seq_len) block, got shape {block.shape}")
        num_rows, seq_len = block.shape
        if num_rows and seq_len < 1:
            raise ValueError("score rows must not be empty")
        if block.size and np.isnan(block.min()):
            row, col = np.argwhere(np.isnan(block))[0]
            raise ValueError(
                f"scores must not contain NaN (first at row {row}, column {col}); "
                "NaN has no fixed-point code"
            )
        fmt = self.config.fmt
        bias_levels = fmt.num_levels // 2
        resolution = fmt.resolution

        # one pass each: scale, clip, round, offset into the code space (the
        # clip/round work in-place on the scaled copy).  resolution is a
        # power of two, so every step below is exact.  The CAM stores score
        # levels; scores can be negative, so they are offset into the
        # unsigned code space [0, num_levels) by biasing with half the range
        # — the offset-binary trick that lets one unsigned CAM cover a
        # signed range.
        scaled = block * (1.0 / resolution)
        np.clip(
            scaled,
            fmt.signed_min_value / resolution,
            fmt.signed_max_value / resolution,
            out=scaled,
        )
        np.rint(scaled, out=scaled)
        # codes fit comfortably in 32 bits (<= 2^18 levels), halving traffic
        search_codes = scaled.astype(np.int32)
        search_codes += bias_levels

        # every code is a stored level by construction, so the batched CAM
        # search collapses to one max per row
        max_codes = self.cam.search_max_codes(search_codes, assume_hits=True)

        # the SUB phase stays in the integer code domain, so the magnitudes
        # dequantise exactly (the subtraction reuses the code buffer — it is
        # not needed afterwards)
        difference_codes = np.subtract(
            max_codes[:, None].astype(np.int32), search_codes, out=search_codes
        )
        if self.cam.config.search_error_rate > 0.0:
            # a search error can miss the true maximum, leaving some x_i above
            # the chosen x_max; the SUB phase outputs magnitudes, so clip at 0
            np.maximum(difference_codes, 0, out=difference_codes)
        return CamSubBatchResult(
            fmt=fmt,
            max_codes=max_codes,
            difference_codes=difference_codes,
        )

    # ------------------------------------------------------------------ #
    # costs
    # ------------------------------------------------------------------ #
    def area_um2(self) -> float:
        """CAM/SUB crossbar array + matchline SAs + OR merge + result register."""
        cam_area = self._area_model.cam_crossbar_area_um2(
            self.config.cam_sub_rows, self.config.fmt.magnitude_bits
        )
        return cam_area + self._or_gates.area_um2 + self._result_register.area_um2

    def power_w(self) -> float:
        """Average power while continuously processing rows."""
        # energy per row over latency per row at a representative length
        representative_len = 128
        return self.row_energy_j(representative_len) / self.row_latency_s(representative_len)

    def energy_j_of(self, stats: AccessStats) -> float:
        """Energy of the accesses recorded in ``stats``.

        Searches and SUB passes both exercise the crossbar (the array is
        time-multiplexed); OR merges are charged per element and the result
        register per row.
        """
        search = stats.cam_sub_searches * self.cam.search_energy_j()
        merge = stats.or_merges * self._or_gates.energy_per_op_j
        subtract = stats.sub_passes * self.cam.search_energy_j()
        register = stats.register_writes * self._result_register.energy_per_op_j
        return search + merge + subtract + register

    def latency_s_of(self, stats: AccessStats) -> float:
        """Serial latency of the accesses recorded in ``stats``.

        The CAM phase searches the inputs one per cycle (all wordlines in
        parallel per input); the SUB phase likewise produces one difference
        per cycle through the same time-multiplexed crossbar.  The OR merge
        settles once per row.
        """
        search = stats.cam_sub_searches * self.cam.search_latency_s()
        merge = stats.register_writes * self._or_gates.latency_s
        subtract = stats.sub_passes * self.cam.search_latency_s()
        return search + merge + subtract

    def row_latency_s(self, seq_len: int) -> float:
        """Latency of processing one score row of ``seq_len`` elements."""
        if seq_len < 1:
            raise ValueError(f"seq_len must be >= 1, got {seq_len}")
        return self.latency_s_of(AccessStats.for_block(1, seq_len))

    def row_energy_j(self, seq_len: int) -> float:
        """Energy of processing one score row of ``seq_len`` elements."""
        if seq_len < 1:
            raise ValueError(f"seq_len must be >= 1, got {seq_len}")
        return self.energy_j_of(AccessStats.for_block(1, seq_len))
