"""ReTransformer: the state-of-the-art ReRAM attention accelerator baseline.

ReTransformer (Yang et al., ICCAD 2020) is the accelerator STAR's MatMul
engine is copied from and the closest prior work in Fig. 3.  Architecturally
it shares STAR's crossbar substrate, but:

* the softmax is computed by a digital CMOS unit next to the crossbars, not
  in RRAM — the unit itself is fast, but it forces a coarser pipeline: the
  softmax stage of a head can only start once the whole score sub-matrix is
  available (operand granularity);
* there is no vector-grained overlap between the score GEMM, the softmax and
  the context GEMM.

The model therefore reuses :class:`repro.core.matmul_engine.MatMulEngine`
and the shared :class:`repro.arch.system.SystemOverheadModel`, attaches the
Table I CMOS softmax unit, and schedules attention with the operand-grained
pipeline.  The result is an accelerator a little less efficient than STAR —
the paper reports STAR/ReTransformer = 1.31x.
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

__all__ = ["ReTransformerConfig", "ReTransformerModel"]


@dataclass(frozen=True)
class ReTransformerConfig:
    """Sizing of the ReTransformer baseline.

    Attributes
    ----------
    matmul:
        Crossbar engine configuration (identical to STAR's by default, per
        the paper's "the MatMul engine follows the design in ReTransformer").
    num_softmax_units:
        Number of parallel CMOS softmax units.
    softmax_data_bits:
        Datapath width of the CMOS softmax units.
    softmax_parallel_lanes:
        Lanes per CMOS softmax unit; ReTransformer provisions a modest unit
        because softmax was not the focus of its design.
    """

    matmul: MatMulEngineConfig = MatMulEngineConfig()
    num_softmax_units: int = 1
    softmax_data_bits: int = 16
    softmax_parallel_lanes: int = 64

    def __post_init__(self) -> None:
        require_positive(self.num_softmax_units, "num_softmax_units")


class ReTransformerModel:
    """Architectural cost model of the ReTransformer accelerator."""

    name = "ReTransformer"
    config_type = ReTransformerConfig

    def __init__(
        self,
        config: ReTransformerConfig | None = None,
        system_overhead: SystemOverheadModel = DEFAULT_SYSTEM_OVERHEAD,
    ) -> None:
        self.config = config or self.config_type()
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
    # latency
    # ------------------------------------------------------------------ #
    def operand_write_latency_s(self, workload: BertWorkload) -> float:
        """Per-layer time spent rewriting the dynamic ``K^T`` / ``V`` operands.

        Zero here: matrix decomposition keeps both products off freshly
        written crossbars.  :class:`~repro.baselines.pipelayer.PipeLayerModel`
        prices the rewrite.
        """
        return 0.0

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
        """Per-row stage timings of the (operand-grained) attention chain."""
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
        """End-to-end latency of one BERT inference."""
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
