"""RRAM non-ideality models: programming variation, read noise, stuck cells.

The STAR paper's key argument is that the softmax operation is *insensitive
to computing precision*, which is what lets it tolerate the analog
imperfections of an RRAM implementation.  These models let the experiments
(E9 ablation in DESIGN.md) inject realistic device non-idealities and verify
that the softmax output distribution is indeed robust.

Three classes of non-ideality are modelled, each with the standard
behavioural formulation used in NeuroSim-style simulators:

* **Programming (device-to-device) variation** — after write-verify, the
  achieved conductance differs from the target by a lognormal factor.
* **Read (cycle-to-cycle) noise** — every analog read sees additive Gaussian
  noise proportional to the nominal conductance.
* **Stuck-at faults** — a fraction of cells are stuck at ``g_min`` (stuck-off)
  or ``g_max`` (stuck-on) and ignore programming entirely.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.validation import require_in_range, require_non_negative

__all__ = ["NoiseConfig", "NoiseModel", "IDEAL_NOISE", "TYPICAL_NOISE", "WORST_CASE_NOISE"]


@dataclass(frozen=True)
class NoiseConfig:
    """Strengths of the three non-ideality mechanisms.

    Attributes
    ----------
    programming_sigma:
        Standard deviation of the lognormal programming-variation factor
        (0 disables it).  Typical write-verify flows achieve 1-3 %.
    read_noise_sigma:
        Relative standard deviation of the Gaussian read noise
        (0 disables it).  Typical values are 0.5-2 %.
    stuck_on_fraction / stuck_off_fraction:
        Fractions of cells stuck at ``g_max`` / ``g_min``.
    seed:
        Seed for the internal random generator, so experiments are
        reproducible.
    """

    programming_sigma: float = 0.0
    read_noise_sigma: float = 0.0
    stuck_on_fraction: float = 0.0
    stuck_off_fraction: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        require_non_negative(self.programming_sigma, "programming_sigma")
        require_non_negative(self.read_noise_sigma, "read_noise_sigma")
        require_in_range(self.stuck_on_fraction, 0.0, 1.0, "stuck_on_fraction")
        require_in_range(self.stuck_off_fraction, 0.0, 1.0, "stuck_off_fraction")
        if self.stuck_on_fraction + self.stuck_off_fraction > 1.0:
            raise ValueError("stuck_on_fraction + stuck_off_fraction must be <= 1")

    @property
    def is_ideal(self) -> bool:
        """True when every mechanism is disabled."""
        return (
            self.programming_sigma == 0.0
            and self.read_noise_sigma == 0.0
            and self.stuck_on_fraction == 0.0
            and self.stuck_off_fraction == 0.0
        )

    @property
    def is_programming_ideal(self) -> bool:
        """True when the write path is ideal (no variation, no stuck cells).

        The batched crossbar backend uses this to decide whether the
        programmed conductances still sit exactly on the device's level
        grid, which enables its exact integer-arithmetic VMM kernel.
        """
        return (
            self.programming_sigma == 0.0
            and self.stuck_on_fraction == 0.0
            and self.stuck_off_fraction == 0.0
        )


IDEAL_NOISE = NoiseConfig()
TYPICAL_NOISE = NoiseConfig(
    programming_sigma=0.02, read_noise_sigma=0.01, stuck_on_fraction=0.001, stuck_off_fraction=0.001
)
WORST_CASE_NOISE = NoiseConfig(
    programming_sigma=0.05, read_noise_sigma=0.03, stuck_on_fraction=0.01, stuck_off_fraction=0.01
)


class NoiseModel:
    """Applies the configured non-idealities to conductance matrices."""

    def __init__(self, config: NoiseConfig | None = None) -> None:
        self.config = config or IDEAL_NOISE
        self._rng = np.random.default_rng(self.config.seed)

    # ------------------------------------------------------------------ #
    # programming-time effects
    # ------------------------------------------------------------------ #
    def apply_programming(
        self,
        target_conductance: np.ndarray,
        g_min: float,
        g_max: float,
    ) -> np.ndarray:
        """Return the conductances actually achieved after programming.

        Applies lognormal device-to-device variation and then overrides the
        stuck cells.  The result is clipped to the physical window.
        """
        g = np.asarray(target_conductance, dtype=np.float64).copy()
        cfg = self.config
        if cfg.programming_sigma > 0.0:
            factors = self._rng.lognormal(
                mean=0.0, sigma=cfg.programming_sigma, size=g.shape
            )
            g = g * factors
        total_stuck = cfg.stuck_on_fraction + cfg.stuck_off_fraction
        if total_stuck > 0.0:
            draw = self._rng.random(size=g.shape)
            stuck_on = draw < cfg.stuck_on_fraction
            stuck_off = (draw >= cfg.stuck_on_fraction) & (draw < total_stuck)
            g = np.where(stuck_on, g_max, g)
            g = np.where(stuck_off, g_min, g)
        return np.clip(g, g_min, g_max)

    # ------------------------------------------------------------------ #
    # read-time effects
    # ------------------------------------------------------------------ #
    def apply_read(self, conductance: np.ndarray) -> np.ndarray:
        """Return conductances perturbed by one read access worth of noise."""
        g = np.asarray(conductance, dtype=np.float64)
        if self.config.read_noise_sigma <= 0.0:
            return g.copy()
        noise = self._rng.normal(0.0, self.config.read_noise_sigma, size=g.shape)
        return np.clip(g * (1.0 + noise), 0.0, None)

    def perturb_current(self, currents: np.ndarray) -> np.ndarray:
        """Apply read noise directly to bitline currents (same relative model).

        The noise is relative, so a zero current stays exactly zero and
        needs no deviate: one deviate is drawn per nonzero current, in C
        order.  Each nonzero current therefore has the same law as under a
        dense draw of one deviate per element, but seeded outputs differ
        draw for draw from such a draw.
        """
        i = np.asarray(currents, dtype=np.float64)
        if self.config.read_noise_sigma <= 0.0:
            return i.copy()
        out = np.array(i, order="C")
        flat = out.reshape(-1)
        carries = np.flatnonzero(flat)
        factors = self._rng.normal(0.0, self.config.read_noise_sigma, size=carries.size)
        factors += 1.0
        flat[carries] *= factors
        return out

    # ------------------------------------------------------------------ #
    # pre-drawn deviates (batched crossbar backend)
    # ------------------------------------------------------------------ #
    def draw_read_deviates(self, size: int) -> np.ndarray:
        """Draw ``size`` read-noise deviates from the stream, in order.

        NumPy's :class:`~numpy.random.Generator` fills arrays sequentially
        and carries no state between calls, so one flat draw of ``n1 + n2``
        deviates is element-for-element identical to two consecutive draws of
        ``n1`` and ``n2``.  The batched crossbar path exploits this to
        pre-draw the noise of a whole input block in exactly the order the
        per-vector path would consume it, which is what makes
        :meth:`repro.rram.crossbar.AnalogCrossbar.matvec_batch` bit-identical
        to a loop of per-vector reads under seeded noise.
        """
        return self._rng.normal(0.0, self.config.read_noise_sigma, size=size)

    def apply_read_with(self, conductance: np.ndarray, deviates: np.ndarray) -> np.ndarray:
        """:meth:`apply_read` using pre-drawn deviates instead of the stream."""
        g = np.asarray(conductance, dtype=np.float64)
        return np.clip(g * (1.0 + deviates), 0.0, None)

    def perturb_current_with(self, currents: np.ndarray, deviates: np.ndarray) -> np.ndarray:
        """:meth:`perturb_current` using pre-drawn deviates."""
        return np.asarray(currents, dtype=np.float64) * (1.0 + deviates)
