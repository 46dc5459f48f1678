"""Ablation studies around STAR's design choices (experiments E7-E9).

Three ablations the paper's design decisions imply but do not tabulate:

* **pipeline granularity** (E7) — vector-grained vs operand-grained
  scheduling of the attention chain, across sequence lengths; each point
  is computed analytically *and* executed through the pipeline
  scheduler, cross-validating the closed-form model;
* **softmax precision** (E8) — how the engine's area/power and the softmax
  fidelity trade off as the fixed-point format is swept;
* **device non-idealities** (E9) — Monte-Carlo sweep of RRAM read noise /
  programming variation / stuck-at faults against softmax output fidelity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.accelerator import STARAccelerator
from repro.core.config import SoftmaxEngineConfig
from repro.core.softmax_engine import RRAMSoftmaxEngine
from repro.nn.bert import BertWorkload
from repro.nn.functional import softmax as exact_softmax
from repro.rram.noise import NoiseConfig
from repro.utils.fixed_point import FixedPointFormat
from repro.utils.stats import kl_divergence
from repro.workloads.scores import AttentionScoreGenerator, ScoreProfile

__all__ = [
    "PipelineAblationRow",
    "PrecisionAblationRow",
    "NoiseAblationRow",
    "AblationSuite",
]


@dataclass(frozen=True)
class PipelineAblationRow:
    """Vector- vs operand-grained latency at one sequence length.

    Each schedule is evaluated twice: with the closed-form analytical
    formulas (``vector_latency_s`` / ``operand_latency_s``) and by the
    pipeline executor running the same rows through discrete stream and
    engine resources (``executed_*``).  The executed numbers cross-validate
    the formulas — ``speedup_deviation`` is the E7 acceptance metric.
    """

    seq_len: int
    vector_latency_s: float
    operand_latency_s: float
    executed_vector_latency_s: float
    executed_operand_latency_s: float

    @property
    def speedup(self) -> float:
        """Analytical speedup of the vector-grained pipeline."""
        return self.operand_latency_s / self.vector_latency_s

    @property
    def executed_speedup(self) -> float:
        """Executed speedup of the vector-grained pipeline."""
        return self.executed_operand_latency_s / self.executed_vector_latency_s

    @property
    def speedup_deviation(self) -> float:
        """Relative deviation of the executed speedup from the analytical one."""
        return abs(self.executed_speedup - self.speedup) / self.speedup


@dataclass(frozen=True)
class PrecisionAblationRow:
    """Engine cost and softmax fidelity at one fixed-point format."""

    integer_bits: int
    frac_bits: int
    area_um2: float
    power_w: float
    mean_kl: float

    @property
    def total_bits(self) -> int:
        """Total bits of the format."""
        return self.integer_bits + self.frac_bits


@dataclass(frozen=True)
class NoiseAblationRow:
    """Softmax fidelity under one RRAM non-ideality configuration."""

    label: str
    read_noise_sigma: float
    programming_sigma: float
    stuck_fraction: float
    mean_kl: float
    max_abs_error: float


class AblationSuite:
    """Runs the E7 / E8 / E9 ablations."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed

    def accelerator(self) -> STARAccelerator:
        """The accelerator configuration every E7 point runs on."""
        return STARAccelerator()

    # ------------------------------------------------------------------ #
    # E7: pipeline granularity
    # ------------------------------------------------------------------ #
    def pipeline_ablation(
        self, seq_lens: list[int] | tuple[int, ...] = (128, 256, 512)
    ) -> list[PipelineAblationRow]:
        """Attention-chain latency under both schedules, per sequence length.

        Every (granularity, seq_len) point is computed both analytically and
        by executing the rows through the pipeline scheduler with the
        accelerator's discrete head-streams and softmax-engine pool.
        """
        accelerator = self.accelerator()
        rows = []
        for seq_len in seq_lens:
            workload = BertWorkload(seq_len=seq_len)
            timing = accelerator.attention_stage_timing(workload)
            vector = accelerator.pipeline.vector_grained_latency(timing).total_latency_s
            operand = accelerator.pipeline.operand_grained_latency(timing).total_latency_s
            executed_vector = accelerator.executed_attention_schedule(
                workload, granularity="vector"
            ).total_latency_s
            executed_operand = accelerator.executed_attention_schedule(
                workload, granularity="operand"
            ).total_latency_s
            rows.append(
                PipelineAblationRow(
                    seq_len=seq_len,
                    vector_latency_s=vector,
                    operand_latency_s=operand,
                    executed_vector_latency_s=executed_vector,
                    executed_operand_latency_s=executed_operand,
                )
            )
        return rows

    # ------------------------------------------------------------------ #
    # E8: softmax precision sweep
    # ------------------------------------------------------------------ #
    def precision_ablation(
        self,
        profile: ScoreProfile,
        formats: list[tuple[int, int]] | tuple[tuple[int, int], ...] = (
            (5, 1),
            (5, 2),
            (6, 2),
            (6, 3),
        ),
        num_rows: int = 256,
        seq_len: int = 256,
    ) -> list[PrecisionAblationRow]:
        """Engine cost and softmax fidelity across fixed-point formats.

        Runs the cycle-accurate engine itself (not the functional model) at
        every format; the batched backend keeps the sweep fast even at
        BERT-scale row counts.
        """
        generator = AttentionScoreGenerator(profile, seed=self.seed)
        scores = generator.rows(num_rows, seq_len)
        exact = exact_softmax(scores)
        rows = []
        for integer_bits, frac_bits in formats:
            fmt = FixedPointFormat(integer_bits, frac_bits)
            engine = RRAMSoftmaxEngine(SoftmaxEngineConfig(fmt=fmt))
            approx = engine.softmax(scores)
            kls = [kl_divergence(exact[i], approx[i]) for i in range(scores.shape[0])]
            rows.append(
                PrecisionAblationRow(
                    integer_bits=integer_bits,
                    frac_bits=frac_bits,
                    area_um2=engine.area_um2(),
                    power_w=engine.power_w(seq_len),
                    mean_kl=float(np.mean(kls)),
                )
            )
        return rows

    # ------------------------------------------------------------------ #
    # E9: device non-idealities
    # ------------------------------------------------------------------ #
    def noise_ablation(
        self,
        profile: ScoreProfile,
        fmt: FixedPointFormat,
        noise_points: list[tuple[str, NoiseConfig]] | None = None,
        num_rows: int = 128,
        seq_len: int = 256,
    ) -> list[NoiseAblationRow]:
        """Softmax fidelity under increasing RRAM non-ideality levels.

        The engine's batched backend draws the analog perturbations for a
        whole score block at once, so the Monte-Carlo corners run at full
        scale.
        """
        if noise_points is None:
            noise_points = [
                ("ideal", NoiseConfig()),
                ("typical", NoiseConfig(programming_sigma=0.02, read_noise_sigma=0.01, seed=self.seed)),
                (
                    "aggressive",
                    NoiseConfig(
                        programming_sigma=0.05,
                        read_noise_sigma=0.03,
                        stuck_on_fraction=0.005,
                        stuck_off_fraction=0.005,
                        seed=self.seed,
                    ),
                ),
            ]
        generator = AttentionScoreGenerator(profile, seed=self.seed)
        scores = generator.rows(num_rows, seq_len)
        exact = exact_softmax(scores)
        rows = []
        for label, noise in noise_points:
            engine = RRAMSoftmaxEngine(SoftmaxEngineConfig(fmt=fmt, noise=noise))
            approx = engine.softmax(scores)
            errors = np.abs(approx - exact)
            kls = [kl_divergence(exact[i], approx[i]) for i in range(scores.shape[0])]
            rows.append(
                NoiseAblationRow(
                    label=label,
                    read_noise_sigma=noise.read_noise_sigma,
                    programming_sigma=noise.programming_sigma,
                    stuck_fraction=noise.stuck_on_fraction + noise.stuck_off_fraction,
                    mean_kl=float(np.mean(kls)),
                    max_abs_error=float(np.max(errors)),
                )
            )
        return rows
