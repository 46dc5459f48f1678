"""Algorithmic softmax variants: exact and STAR fixed-point.

These are *functional* models — they compute what the respective hardware
produces, without simulating crossbar currents — and are therefore fast
enough to run inside full BERT-base inference for the accuracy experiments
(E4, E8 in DESIGN.md).  The cycle/energy-accurate counterpart of
:class:`FixedPointSoftmax` lives in :mod:`repro.core.softmax_engine`; a test
asserts the two produce identical numerics on the same inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn.functional import softmax as exact_softmax
from repro.utils.fixed_point import FixedPointFormat

__all__ = ["ReferenceSoftmax", "FixedPointSoftmax"]


@dataclass(frozen=True)
class ReferenceSoftmax:
    """Exact floating-point softmax (wrapper, so it is interchangeable)."""

    def __call__(self, x: np.ndarray, axis: int = -1) -> np.ndarray:
        """Exact softmax along ``axis``."""
        return exact_softmax(x, axis=axis)


@dataclass(frozen=True)
class FixedPointSoftmax:
    """Functional model of STAR's fixed-point softmax datapath.

    The datapath (Fig. 1 and Fig. 2 of the paper) is:

    1. quantise the input scores to the fixed-point format determined by the
       bit-width analysis (e.g. 8 bits = 6 integer + 2 fractional for CNEWS);
    2. find the maximum and subtract: ``d_i = x_max - x_i >= 0`` (the sign is
       dropped, which is exact because the difference is never positive);
    3. look up ``e^{-d_i}`` in the LUT, whose entries are
       ``round(e^{x} * 2^m) * 2^{-m}`` with ``m = lut_frac_bits``;
    4. accumulate the denominator from the same LUT values (in hardware the
       counters + VMM crossbar produce exactly this sum);
    5. divide, with the quotient truncated to ``quotient_bits`` fractional
       bits (the digital divider's output precision).

    Attributes
    ----------
    fmt:
        Fixed-point format of the quantised scores.
    lut_frac_bits:
        ``m`` in the LUT quantisation rule (the paper's Fig. 2 uses 4).
    quotient_bits:
        Fractional bits kept by the final divider; 0 keeps full precision,
        which is useful when isolating LUT error in tests.
    """

    fmt: FixedPointFormat
    lut_frac_bits: int = 4
    quotient_bits: int = 0

    def __post_init__(self) -> None:
        if self.lut_frac_bits < 1:
            raise ValueError(f"lut_frac_bits must be >= 1, got {self.lut_frac_bits}")
        if self.quotient_bits < 0:
            raise ValueError(f"quotient_bits must be >= 0, got {self.quotient_bits}")

    def __call__(self, x: np.ndarray, axis: int = -1) -> np.ndarray:
        """Fixed-point softmax along ``axis`` (NaN raises; ±inf saturate)."""
        x = np.asarray(x, dtype=np.float64)
        if x.size and np.isnan(x.min()):
            index = tuple(int(i) for i in np.argwhere(np.isnan(x))[0])
            raise ValueError(
                f"scores must not contain NaN (first at index {index}); "
                "NaN has no fixed-point code"
            )
        moved = np.moveaxis(x, axis, -1)

        # 1. quantise the scores; clip to the offset-binary signed range the
        #    engine's CAM code space can hold (e.g. [-32, +31.75] for CNEWS)
        clipped = np.clip(moved, self.fmt.signed_min_value, self.fmt.signed_max_value)
        quantised = np.rint(clipped / self.fmt.resolution) * self.fmt.resolution

        # 2. x_max - x_i, always >= 0; saturate to the unsigned magnitude range
        x_max = np.max(quantised, axis=-1, keepdims=True)
        diff = np.clip(x_max - quantised, 0.0, self.fmt.max_value)

        # 3. LUT exponential: round(e^{-d} * 2^m) * 2^{-m}
        lut_scale = float(1 << self.lut_frac_bits)
        exps = np.rint(np.exp(-diff) * lut_scale) / lut_scale

        # 4. denominator from the same quantised values
        denom = np.sum(exps, axis=-1, keepdims=True)
        # an all-zero row can only occur if every LUT entry rounded to zero;
        # hardware would output a uniform distribution (divider saturates)
        safe_denom = np.where(denom > 0.0, denom, 1.0)
        probs = exps / safe_denom
        uniform = np.full_like(probs, 1.0 / probs.shape[-1])
        probs = np.where(denom > 0.0, probs, uniform)

        # 5. divider output quantisation
        if self.quotient_bits > 0:
            q_scale = float(1 << self.quotient_bits)
            probs = np.floor(probs * q_scale) / q_scale

        return np.moveaxis(probs, -1, axis)
