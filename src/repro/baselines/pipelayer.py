"""PipeLayer: a generic ReRAM DNN accelerator executing the attention model.

PipeLayer (Song et al., HPCA 2017) pioneered intra-layer pipelining for
ReRAM CNN/MLP accelerators, but it was designed for *static* weights.
Executing attention on it is inefficient for two architectural reasons the
STAR paper leans on:

* the score product ``Q K^T`` and the context product ``A V`` multiply two
  *dynamic* matrices, so PipeLayer must program ``K^T`` and ``V`` into
  crossbars before every use — paying RRAM write latency and energy on the
  critical path (ReTransformer's matrix-decomposition trick and STAR both
  avoid this);
* softmax runs in a simple digital unit at operand granularity, with no
  overlap with the crossbar computation.

With the shared crossbar substrate and system overheads, these two effects
put PipeLayer's computing efficiency several times below ReTransformer and
STAR, matching the ~4.3x gap of Fig. 3.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.report import CostReport
from repro.arch.system import DEFAULT_SYSTEM_OVERHEAD, SystemOverheadModel
from repro.baselines.cmos_softmax import CMOSSoftmaxConfig, CMOSSoftmaxUnit
from repro.core.config import MatMulEngineConfig, PipelineConfig
from repro.core.matmul_engine import GEMMShape, MatMulEngine
from repro.core.pipeline import AttentionPipeline, StageTiming, attention_streams
from repro.nn.bert import BertWorkload
from repro.utils.validation import require_positive

__all__ = ["PipeLayerConfig", "PipeLayerModel"]


@dataclass(frozen=True)
class PipeLayerConfig:
    """Sizing of the PipeLayer baseline.

    Attributes
    ----------
    matmul:
        Crossbar engine configuration (same substrate as the other designs).
    num_softmax_units:
        Parallel digital softmax units.
    softmax_data_bits:
        Width of the digital softmax datapath.
    softmax_parallel_lanes:
        Lanes per digital softmax unit.
    write_verify_pulses:
        Program/verify pulses needed per cell when writing the dynamic
        ``K^T`` / ``V`` operands before each attention computation
        (multi-level cells need several verify iterations).
    """

    matmul: MatMulEngineConfig = MatMulEngineConfig()
    num_softmax_units: int = 1
    softmax_data_bits: int = 16
    softmax_parallel_lanes: int = 64
    write_verify_pulses: int = 8

    def __post_init__(self) -> None:
        require_positive(self.num_softmax_units, "num_softmax_units")
        require_positive(self.write_verify_pulses, "write_verify_pulses")


class PipeLayerModel:
    """Architectural cost model of PipeLayer running BERT attention."""

    name = "PipeLayer"

    def __init__(
        self,
        config: PipeLayerConfig | None = None,
        system_overhead: SystemOverheadModel = DEFAULT_SYSTEM_OVERHEAD,
    ) -> None:
        self.config = config or PipeLayerConfig()
        self.matmul_engine = MatMulEngine(self.config.matmul)
        self.system_overhead = system_overhead
        self.pipeline = AttentionPipeline(PipelineConfig(granularity="operand"))
        self._softmax_units: dict[int, CMOSSoftmaxUnit] = {}

    def _softmax_unit(self, seq_len: int) -> CMOSSoftmaxUnit:
        if seq_len not in self._softmax_units:
            self._softmax_units[seq_len] = CMOSSoftmaxUnit(
                CMOSSoftmaxConfig(
                    vector_length=seq_len,
                    data_bits=self.config.softmax_data_bits,
                    parallel_lanes=min(seq_len, self.config.softmax_parallel_lanes),
                )
            )
        return self._softmax_units[seq_len]

    # ------------------------------------------------------------------ #
    # operand-rewrite penalty
    # ------------------------------------------------------------------ #
    def operand_write_latency_s(self, workload: BertWorkload) -> float:
        """Latency of programming ``K^T`` and ``V`` for every head of one layer.

        Writes are row-parallel; heads are written one after another because
        the write drivers are shared, which is what puts the rewrite on the
        critical path.
        """
        cfg = workload.config
        device = self.matmul_engine._reference_tile.device.config
        pulses = self.config.write_verify_pulses
        # K^T is head_dim x seq_len (head_dim rows), V is seq_len x head_dim
        rows_per_head = cfg.head_dim + workload.seq_len
        total_rows = workload.batch_size * cfg.num_heads * rows_per_head
        return total_rows * pulses * device.write_pulse_s

    # ------------------------------------------------------------------ #
    # latency
    # ------------------------------------------------------------------ #
    def _projection_latency_s(self, workload: BertWorkload) -> float:
        cfg = workload.config
        tokens = workload.batch_size * workload.seq_len
        shape = GEMMShape(m=tokens, k=cfg.hidden, n=cfg.hidden)
        return 4 * self.matmul_engine.gemm_latency_s(shape)

    def _ffn_latency_s(self, workload: BertWorkload) -> float:
        cfg = workload.config
        tokens = workload.batch_size * workload.seq_len
        up = GEMMShape(m=tokens, k=cfg.hidden, n=cfg.intermediate)
        down = GEMMShape(m=tokens, k=cfg.intermediate, n=cfg.hidden)
        return self.matmul_engine.gemm_latency_s(up) + self.matmul_engine.gemm_latency_s(down)

    def attention_stage_timing(self, workload: BertWorkload) -> StageTiming:
        """Per-row timings of the operand-grained attention chain."""
        cfg = workload.config
        seq_len = workload.seq_len
        score_shape = GEMMShape(m=1, k=cfg.head_dim, n=seq_len)
        context_shape = GEMMShape(m=1, k=seq_len, n=cfg.head_dim)
        num_rows = workload.batch_size * cfg.num_heads * seq_len
        streams = attention_streams(
            cfg.num_heads, workload.batch_size, self.config.matmul.num_tiles
        )
        softmax_row = (
            self._softmax_unit(seq_len).row_latency_s() / self.config.num_softmax_units
        )
        return StageTiming(
            score_row_s=self.matmul_engine.row_latency_s(score_shape) / streams,
            softmax_row_s=softmax_row,
            context_row_s=self.matmul_engine.row_latency_s(context_shape) / streams,
            num_rows=num_rows,
        )

    def inference_latency_s(self, workload: BertWorkload) -> float:
        """End-to-end latency of one BERT inference, including operand rewrites."""
        timing = self.attention_stage_timing(workload)
        attention = self.pipeline.latency(timing).total_latency_s
        per_layer = (
            self._projection_latency_s(workload)
            + self.operand_write_latency_s(workload)
            + attention
            + self._ffn_latency_s(workload)
        )
        return workload.config.num_layers * per_layer

    # ------------------------------------------------------------------ #
    # power / area / report
    # ------------------------------------------------------------------ #
    def power_w(self, seq_len: int = 128) -> float:
        """Average chip power."""
        tiles = self.matmul_engine.peak_power_w()
        softmax = self.config.num_softmax_units * self._softmax_unit(seq_len).power_w
        overhead = self.system_overhead.total_power_w(self.config.matmul.num_tiles)
        return tiles + softmax + overhead

    def area_mm2(self, seq_len: int = 128) -> float:
        """Total chip area."""
        tiles = self.matmul_engine.area_mm2()
        softmax = self.config.num_softmax_units * self._softmax_unit(seq_len).area_mm2
        overhead = self.system_overhead.total_area_mm2(self.config.matmul.num_tiles)
        return tiles + softmax + overhead

    def cost_report(self, workload: BertWorkload) -> CostReport:
        """Fig. 3 computing-efficiency report."""
        return CostReport(
            name=self.name,
            area_mm2=self.area_mm2(workload.seq_len),
            power_w=self.power_w(workload.seq_len),
            latency_s=self.inference_latency_s(workload),
            operations=float(workload.total_ops()),
        )
