"""Attention-pipeline timing models: operand-grained vs STAR's vector-grained.

The attention mechanism is a three-stage producer/consumer chain per head:

    score GEMM (Q K^T)  ->  softmax  ->  context GEMM (A V)

Prior RRAM accelerators schedule it at *operand* granularity: the softmax
stage cannot start until the whole score matrix exists, and the context GEMM
cannot start until the whole attention matrix exists.  Because STAR's
softmax also lives in crossbars with row-at-a-time throughput, the paper
pipelines at *vector* granularity: as soon as the MatMul engine finishes one
score row it is handed to the softmax engine while the next row is being
computed, and finished attention rows immediately feed the context GEMM.

These classes compute the end-to-end latency of both schedules from the
per-row latencies of the stages; their ratio is the speedup the E7
ablation reports.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import PipelineConfig
from repro.utils.validation import require_non_negative, require_positive

__all__ = ["StageTiming", "PipelineSchedule", "AttentionPipeline", "attention_streams"]


def attention_streams(
    num_heads: int,
    batch_size: int,
    num_tiles: int,
    tiles_per_stream: int = 2,
) -> int:
    """How many attention head-streams can proceed concurrently on the tiles.

    Each stream (one head of one sequence) keeps its ``K^T`` and ``V``
    operands resident in ``tiles_per_stream`` crossbar tiles; streams beyond
    the tile budget are serialised.  The result scales the effective per-row
    GEMM latencies seen by the pipeline model.
    """
    require_positive(num_heads, "num_heads")
    require_positive(batch_size, "batch_size")
    require_positive(num_tiles, "num_tiles")
    require_positive(tiles_per_stream, "tiles_per_stream")
    return max(1, min(num_heads * batch_size, num_tiles // tiles_per_stream))


@dataclass(frozen=True)
class StageTiming:
    """Per-row latencies of the three attention stages.

    Attributes
    ----------
    score_row_s:
        Time for the MatMul engine to produce one row of ``Q K^T``.
    softmax_row_s:
        Time for the softmax engine to process one score row.
    context_row_s:
        Time for the MatMul engine to produce one row of ``A V``.
    num_rows:
        Number of rows flowing through the pipeline
        (``num_heads * seq_len`` per layer, times batch).
    """

    score_row_s: float
    softmax_row_s: float
    context_row_s: float
    num_rows: int

    def __post_init__(self) -> None:
        # zero-cost stages are legitimate ablation points (e.g. "what if
        # softmax were free?"), so only negative latencies are rejected
        require_non_negative(self.score_row_s, "score_row_s")
        require_non_negative(self.softmax_row_s, "softmax_row_s")
        require_non_negative(self.context_row_s, "context_row_s")
        if self.num_rows < 1:
            raise ValueError(f"num_rows must be >= 1, got {self.num_rows}")

    @property
    def bottleneck_row_s(self) -> float:
        """Slowest stage's per-row latency (the steady-state pipeline interval)."""
        return max(self.score_row_s, self.softmax_row_s, self.context_row_s)

    @property
    def sum_row_s(self) -> float:
        """Sum of all stage latencies for one row (the pipeline fill time)."""
        return self.score_row_s + self.softmax_row_s + self.context_row_s


@dataclass(frozen=True)
class PipelineSchedule:
    """Latency of one attention computation under a given schedule."""

    granularity: str
    total_latency_s: float
    steady_state_interval_s: float

    def __post_init__(self) -> None:
        # an all-zero-stage ablation with zero handoff yields total == 0
        require_non_negative(self.total_latency_s, "total_latency_s")
        require_non_negative(self.steady_state_interval_s, "steady_state_interval_s")


class AttentionPipeline:
    """Computes attention latency under operand- or vector-grained scheduling."""

    def __init__(self, config: PipelineConfig | None = None) -> None:
        self.config = config or PipelineConfig()

    # ------------------------------------------------------------------ #
    # schedules
    # ------------------------------------------------------------------ #
    def operand_grained_latency(self, timing: StageTiming) -> PipelineSchedule:
        """Coarse schedule: each stage finishes all rows before the next starts."""
        handoff = self.config.stage_handoff_s
        total = (
            timing.num_rows * timing.score_row_s
            + timing.num_rows * timing.softmax_row_s
            + timing.num_rows * timing.context_row_s
            + 2 * handoff
        )
        return PipelineSchedule(
            granularity="operand",
            total_latency_s=total,
            steady_state_interval_s=timing.sum_row_s,
        )

    def vector_grained_latency(self, timing: StageTiming) -> PipelineSchedule:
        """STAR's schedule: rows stream through the three stages back to back."""
        handoff = self.config.stage_handoff_s
        fill = timing.sum_row_s + 2 * handoff
        steady = timing.bottleneck_row_s + handoff
        total = fill + (timing.num_rows - 1) * steady
        return PipelineSchedule(
            granularity="vector",
            total_latency_s=total,
            steady_state_interval_s=steady,
        )

    def latency(self, timing: StageTiming) -> PipelineSchedule:
        """Latency under the configured granularity."""
        if self.config.granularity == "vector":
            return self.vector_grained_latency(timing)
        return self.operand_grained_latency(timing)
