"""Configuration of the STAR accelerator and its softmax engine.

The defaults follow Section III of the paper:

* MatMul engine: 128 x 128 RRAM crossbars with 5-bit ADCs (after
  ReTransformer);
* Softmax engine: one 512 x 18 CAM/SUB crossbar, and 256 x 18 CAM, LUT and
  VMM crossbars, supporting up to 9-bit data (the MRPC format) with the sign
  bit of ``x_i - x_max`` removed;
* LUT quantisation ``m = 4`` fractional bits (Fig. 2).

The per-dataset softmax precision (8 / 9 / 7 bits) is selected by passing
the corresponding :class:`~repro.utils.fixed_point.FixedPointFormat`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.rram.noise import IDEAL_NOISE, NoiseConfig
from repro.utils.fixed_point import CNEWS_FORMAT, FixedPointFormat
from repro.utils.validation import require_finite, require_non_negative, require_positive_int

__all__ = ["SoftmaxEngineConfig", "MatMulEngineConfig", "PipelineConfig", "STARConfig"]


@dataclass(frozen=True)
class SoftmaxEngineConfig:
    """Sizing of the RRAM softmax engine.

    Attributes
    ----------
    fmt:
        Fixed-point format of the softmax inputs (sign dropped after the
        ``x_i - x_max`` subtraction).  The CAM/LUT/VMM crossbars must have at
        least ``2 ** fmt.magnitude_bits`` rows.
    cam_sub_rows:
        Rows of the CAM/SUB crossbar (512 in the paper, enough for 9-bit
        signed scores).
    exp_rows:
        Rows of the exponential unit's CAM / LUT / VMM crossbars (256 in the
        paper).  Difference codes beyond ``exp_rows`` produce no CAM match
        and therefore contribute ``exp() = 0`` — which is numerically exact,
        because ``round(e^{-d} * 2^m)`` already rounds to zero long before
        the stored range runs out.
    lut_frac_bits:
        ``m`` in the LUT entry rule ``round(e^x * 2^m) * 2^-m`` (Fig. 2).
    lut_value_bits:
        Width of the stored LUT / VMM words (18 columns in the paper).
    counter_bits:
        Width of each per-level counter (must count up to the sequence
        length; 10 bits covers 1024).
    divider_bits:
        Width of the final normalisation divider.
    cam_search_error_rate:
        Probability that one CAM/SUB matchline search flips its decision
        (sense-margin failures under device noise).  The batched max search
        samples the merged matchlines from per-level match counts, exact in
        law (:meth:`repro.rram.cam.CAMCrossbar.search_max_codes`).  The
        exponential unit's CAM is kept ideal on the functional path
        regardless — a flip there is equivalent to an analog LUT/VMM
        perturbation, which :attr:`noise` already models.
    cam_seed:
        Seed of the CAM error-injection random stream.
    noise:
        RRAM non-idealities injected into the crossbars (ideal by default).
    """

    fmt: FixedPointFormat = CNEWS_FORMAT
    cam_sub_rows: int = 512
    exp_rows: int = 256
    lut_frac_bits: int = 4
    lut_value_bits: int = 18
    counter_bits: int = 10
    divider_bits: int = 16
    cam_search_error_rate: float = 0.0
    cam_seed: int = 0
    noise: NoiseConfig = field(default_factory=lambda: IDEAL_NOISE)

    def __post_init__(self) -> None:
        if self.cam_sub_rows < self.fmt.num_levels:
            raise ValueError(
                f"cam_sub_rows={self.cam_sub_rows} cannot store the "
                f"{self.fmt.num_levels} levels of format {self.fmt}"
            )
        if self.exp_rows < 2:
            raise ValueError(f"exp_rows must be >= 2, got {self.exp_rows}")
        if self.lut_frac_bits < 1:
            raise ValueError(f"lut_frac_bits must be >= 1, got {self.lut_frac_bits}")
        if self.lut_value_bits < self.lut_frac_bits + 1:
            raise ValueError(
                "lut_value_bits must exceed lut_frac_bits "
                f"({self.lut_value_bits} vs {self.lut_frac_bits})"
            )
        if self.counter_bits < 4:
            raise ValueError(f"counter_bits must be >= 4, got {self.counter_bits}")
        if self.divider_bits < 8:
            raise ValueError(f"divider_bits must be >= 8, got {self.divider_bits}")
        if not 0.0 <= self.cam_search_error_rate <= 1.0:
            raise ValueError(
                "cam_search_error_rate must lie in [0, 1], "
                f"got {self.cam_search_error_rate}"
            )


@dataclass(frozen=True)
class MatMulEngineConfig:
    """Sizing of the ReTransformer-style MatMul engine.

    Attributes
    ----------
    crossbar_rows / crossbar_cols:
        Tile dimensions (128 x 128 in the paper).
    adc_bits:
        Column ADC resolution (5 bits, following ReTransformer).
    dac_bits / input_bits:
        Wordline DAC resolution and streamed input precision.
    weight_bits:
        Weight precision mapped onto the cells (8 bits, two 4-level cells
        per weight pair handled inside the crossbar model).
    bits_per_cell:
        Programmable bits per RRAM cell (2 is the usual multi-level-cell
        assumption; raise it in functional demos that need finer weights).
    num_tiles:
        Number of crossbar tiles provisioned per engine.
    allow_duplication:
        Replicate stationary operands across idle tiles so every tile can
        work on a different input row of the same GEMM (the standard weight
        duplication of ISAAC-style designs).
    noise:
        RRAM non-idealities (ideal by default).
    """

    crossbar_rows: int = 128
    crossbar_cols: int = 128
    adc_bits: int = 5
    dac_bits: int = 1
    input_bits: int = 8
    weight_bits: int = 8
    bits_per_cell: int = 2
    num_tiles: int = 96
    allow_duplication: bool = True
    noise: NoiseConfig = field(default_factory=lambda: IDEAL_NOISE)

    def __post_init__(self) -> None:
        if self.crossbar_rows < 1 or self.crossbar_cols < 1:
            raise ValueError("crossbar dimensions must be positive")
        if not 1 <= self.adc_bits <= 16:
            raise ValueError(f"adc_bits must be in [1, 16], got {self.adc_bits}")
        require_positive_int(self.num_tiles, "num_tiles")
        if self.weight_bits < 1:
            raise ValueError(f"weight_bits must be >= 1, got {self.weight_bits}")
        if not 1 <= self.bits_per_cell <= 6:
            raise ValueError(f"bits_per_cell must be in [1, 6], got {self.bits_per_cell}")


@dataclass(frozen=True)
class PipelineConfig:
    """Granularity and overhead of the attention pipeline.

    Attributes
    ----------
    granularity:
        ``"vector"`` — STAR's fine-grained pipeline where each score row
        flows to the softmax engine as soon as the MatMul engine produces
        it; ``"operand"`` — the coarse pipeline of prior work where softmax
        waits for the complete score matrix.
    stage_handoff_s:
        Control/buffering overhead of forwarding one vector between stages.
    """

    granularity: str = "vector"
    stage_handoff_s: float = 2.0e-9

    def __post_init__(self) -> None:
        if self.granularity not in ("vector", "operand"):
            raise ValueError(
                f"granularity must be 'vector' or 'operand', got {self.granularity!r}"
            )
        require_non_negative(self.stage_handoff_s, "stage_handoff_s")
        require_finite(self.stage_handoff_s, "stage_handoff_s")


@dataclass(frozen=True)
class STARConfig:
    """Top-level STAR accelerator configuration."""

    softmax: SoftmaxEngineConfig = field(default_factory=SoftmaxEngineConfig)
    matmul: MatMulEngineConfig = field(default_factory=MatMulEngineConfig)
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)
