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

The second point is ReTransformer's design too, so the model is
:class:`~repro.baselines.retransformer.ReTransformerModel` plus the operand
rewrite.  On the shared crossbar substrate and system overheads the
rewrite alone puts PipeLayer's computing efficiency several times below
ReTransformer and STAR, matching the ~4.3x gap of Fig. 3.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.retransformer import ReTransformerConfig, ReTransformerModel
from repro.nn.bert import BertWorkload
from repro.utils.validation import require_positive

__all__ = ["PipeLayerConfig", "PipeLayerModel"]


@dataclass(frozen=True)
class PipeLayerConfig(ReTransformerConfig):
    """Sizing of the PipeLayer baseline: ReTransformer's plus the rewrite.

    Attributes
    ----------
    write_verify_pulses:
        Program/verify pulses needed per cell when writing the dynamic
        ``K^T`` / ``V`` operands before each attention computation
        (multi-level cells need several verify iterations).
    """

    write_verify_pulses: int = 8

    def __post_init__(self) -> None:
        super().__post_init__()
        require_positive(self.write_verify_pulses, "write_verify_pulses")


class PipeLayerModel(ReTransformerModel):
    """Architectural cost model of PipeLayer running BERT attention."""

    name = "PipeLayer"
    config_type = PipeLayerConfig

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
