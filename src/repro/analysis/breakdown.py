"""Latency breakdowns: the GPU motivation (E1) and STAR's executed schedule.

Two analyzers live here:

* :class:`LatencyBreakdownAnalyzer` — the experiment behind E1: run the GPU
  inference model across a sweep of sequence lengths and report, for each
  length, the share of execution time spent in softmax.  The paper's
  headline numbers are that softmax overtakes matrix multiplication at
  sequence length 512 and reaches 59.20 % of BERT-base execution time there.
* :class:`StarScheduleAnalyzer` — the executed counterpart on the STAR
  side: for each sequence length, run the attention rows through the
  executed :class:`~repro.core.scheduler.PipelineExecutor` and compare
  the measured pipeline latency, steady-state interval and softmax-engine
  occupancy against the closed-form
  :class:`~repro.core.pipeline.AttentionPipeline` prediction.  This is
  where E7-style speedups come from execution rather than formulas.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.gpu import GPUModel
from repro.core.accelerator import STARAccelerator
from repro.nn.bert import BertConfig, BERT_BASE, BertWorkload

__all__ = [
    "BreakdownRow",
    "LatencyBreakdownAnalyzer",
    "StarScheduleRow",
    "StarScheduleAnalyzer",
]

#: The sequence lengths of the E1 observation: softmax share vs length.
INTRO_SEQ_LENS = (64, 128, 256, 384, 512, 768, 1024)


@dataclass(frozen=True)
class BreakdownRow:
    """One row of the latency-breakdown table."""

    seq_len: int
    matmul_s: float
    softmax_s: float
    total_s: float
    softmax_share: float


class LatencyBreakdownAnalyzer:
    """Sweeps sequence length and reports the softmax share of GPU latency."""

    def __init__(
        self,
        gpu: GPUModel | None = None,
        bert_config: BertConfig = BERT_BASE,
        sweep: tuple[int, ...] = INTRO_SEQ_LENS,
    ) -> None:
        self.gpu = gpu or GPUModel()
        self.bert_config = bert_config
        self.sweep = sweep

    def row_for(self, seq_len: int) -> BreakdownRow:
        """Breakdown at one sequence length."""
        workload = BertWorkload(config=self.bert_config, seq_len=seq_len)
        breakdown = self.gpu.latency_breakdown(workload)
        return BreakdownRow(
            seq_len=seq_len,
            matmul_s=breakdown.matmul_s,
            softmax_s=breakdown.softmax_s,
            total_s=breakdown.total_s,
            softmax_share=breakdown.softmax_share,
        )

    def sweep_rows(self) -> list[BreakdownRow]:
        """Breakdown across the configured sequence-length sweep."""
        return [self.row_for(seq_len) for seq_len in self.sweep]

    def crossover_length(self) -> int | None:
        """First swept length at which softmax exceeds the matmul latency."""
        for row in self.sweep_rows():
            if row.softmax_share > 0.5:
                return row.seq_len
        return None

    def format_table(self) -> str:
        """Printable table matching the structure of the paper's observation."""
        lines = [f"{'seq_len':>8} {'matmul (ms)':>12} {'softmax (ms)':>13} {'softmax share':>14}"]
        for row in self.sweep_rows():
            lines.append(
                f"{row.seq_len:>8d} {row.matmul_s * 1e3:>12.3f} "
                f"{row.softmax_s * 1e3:>13.3f} {row.softmax_share * 100:>13.2f}%"
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class StarScheduleRow:
    """Executed vs analytical attention-pipeline latency at one length."""

    seq_len: int
    analytical_s: float
    executed_s: float
    steady_interval_s: float
    softmax_utilization: float
    softmax_queue_peak: int

    @property
    def deviation(self) -> float:
        """Relative deviation of the executed latency from the prediction."""
        return abs(self.executed_s - self.analytical_s) / self.analytical_s


class StarScheduleAnalyzer:
    """Cross-validates STAR's executed attention schedule against the formulas."""

    def __init__(
        self,
        accelerator: STARAccelerator | None = None,
        bert_config: BertConfig = BERT_BASE,
        sweep: tuple[int, ...] = (128, 256, 512),
        batch_size: int = 1,
    ) -> None:
        self.accelerator = accelerator or STARAccelerator()
        self.bert_config = bert_config
        self.sweep = sweep
        self.batch_size = batch_size

    def row_for(self, seq_len: int) -> StarScheduleRow:
        """Executed-vs-analytical comparison at one sequence length."""
        workload = BertWorkload(
            config=self.bert_config, seq_len=seq_len, batch_size=self.batch_size
        )
        star = self.accelerator
        analytical = star.pipeline.vector_grained_latency(
            star.attention_stage_timing(workload)
        )
        executed = star.executed_attention_schedule(workload, granularity="vector")
        return StarScheduleRow(
            seq_len=seq_len,
            analytical_s=analytical.total_latency_s,
            executed_s=executed.total_latency_s,
            steady_interval_s=executed.steady_state_interval_s,
            softmax_utilization=executed.utilization("softmax"),
            softmax_queue_peak=executed.queue_peaks["softmax"],
        )

    def sweep_rows(self) -> list[StarScheduleRow]:
        """Comparison across the configured sequence-length sweep."""
        return [self.row_for(seq_len) for seq_len in self.sweep]

    def format_table(self) -> str:
        """Printable executed-vs-analytical cross-validation table."""
        lines = [
            f"{'seq_len':>8} {'analytical (us)':>16} {'executed (us)':>14} "
            f"{'dev':>7} {'sm util':>8} {'sm queue':>9}"
        ]
        for row in self.sweep_rows():
            lines.append(
                f"{row.seq_len:>8d} {row.analytical_s * 1e6:>16.2f} "
                f"{row.executed_s * 1e6:>14.2f} {row.deviation * 100:>6.2f}% "
                f"{row.softmax_utilization * 100:>7.1f}% {row.softmax_queue_peak:>9d}"
            )
        return "\n".join(lines)
