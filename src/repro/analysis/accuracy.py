"""Distribution fidelity of the softmax implementations.

:class:`AccuracyAnalyzer` measures the mean KL divergence and the maximum
and mean absolute probability errors of a softmax implementation against
the exact softmax, on synthetic attention-score rows.  E4 runs it on the
cycle-accurate engine at each dataset's derived format; the E8/E9
ablations (:mod:`repro.analysis.ablation`) back the paper's claim that
softmax is "insensitive to computing precision".  Task accuracy on the
synthetic classification task comes from
:class:`repro.workloads.classification.ClassificationTask` directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.config import SoftmaxEngineConfig
from repro.core.softmax_engine import RRAMSoftmaxEngine
from repro.nn.functional import softmax as exact_softmax
from repro.utils.fixed_point import FixedPointFormat
from repro.utils.stats import kl_divergence
from repro.workloads.scores import AttentionScoreGenerator, ScoreProfile

__all__ = ["FidelityMetrics", "AccuracyAnalyzer"]


@dataclass(frozen=True)
class FidelityMetrics:
    """Distribution-level fidelity of one softmax implementation."""

    mean_kl: float
    max_abs_error: float
    mean_abs_error: float


class AccuracyAnalyzer:
    """Measures softmax fidelity against the exact softmax."""

    def __init__(self, num_rows: int = 256, seed: int = 0) -> None:
        if num_rows < 1:
            raise ValueError(f"num_rows must be >= 1, got {num_rows}")
        self.num_rows = num_rows
        self.seed = seed

    @staticmethod
    def engine_for_format(fmt: FixedPointFormat) -> RRAMSoftmaxEngine:
        """A cycle-accurate engine for one format.

        The engine's crossbars must hold every representable level, so they
        are sized to the format instead of using the paper defaults.
        """
        rows = max(512, fmt.num_levels)
        return RRAMSoftmaxEngine(
            SoftmaxEngineConfig(fmt=fmt, cam_sub_rows=rows, exp_rows=max(256, fmt.num_levels))
        )

    # ------------------------------------------------------------------ #
    # distribution fidelity
    # ------------------------------------------------------------------ #
    def fidelity(
        self,
        softmax_fn: Callable[[np.ndarray], np.ndarray],
        profile: ScoreProfile,
        seq_len: int | None = None,
    ) -> FidelityMetrics:
        """Fidelity of ``softmax_fn`` against the exact softmax on one profile."""
        generator = AttentionScoreGenerator(profile, seed=self.seed)
        rows = generator.rows(self.num_rows, seq_len)
        approx = softmax_fn(rows)
        exact = exact_softmax(rows)
        errors = np.abs(approx - exact)
        kls = [kl_divergence(exact[i], approx[i]) for i in range(rows.shape[0])]
        return FidelityMetrics(
            mean_kl=float(np.mean(kls)),
            max_abs_error=float(np.max(errors)),
            mean_abs_error=float(np.mean(errors)),
        )
