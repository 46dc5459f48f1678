"""BERT-base model definition and workload operation counting.

The paper's efficiency experiments are all phrased in terms of the BERT-base
encoder (12 layers, hidden 768, 12 heads, FFN 3072).  Two things are needed
from it here:

* a runnable forward pass (for the accuracy and score-distribution
  experiments), built from :mod:`repro.nn.encoder` — with pluggable
  softmax (``softmax_fn``) and GEMM compute backend (``backend``), so the
  same model runs exact NumPy inference or full analog inference on
  simulated RRAM crossbars;
* exact operation counts of each component as a function of sequence length
  (for the latency-breakdown experiment E1 and the efficiency figure E6),
  provided by :class:`BertWorkload` without instantiating any weights — so
  the benchmark harness can sweep sequence lengths cheaply.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.nn.backend import ComputeBackend
from repro.nn.encoder import TransformerEncoder
from repro.nn.layers import Embedding
from repro.utils.validation import require_positive_int

if TYPE_CHECKING:  # imported lazily at runtime to avoid an import cycle
    from repro.core.matmul_engine import GEMMShape
    from repro.core.scheduler import AttentionExecutor, ExecutedSchedule

__all__ = ["BertConfig", "BERT_BASE", "BertEncoderModel", "BertWorkload"]


@dataclass(frozen=True)
class BertConfig:
    """Topology of a BERT-style encoder."""

    num_layers: int = 12
    hidden: int = 768
    num_heads: int = 12
    intermediate: int = 3072
    vocab_size: int = 30522
    max_positions: int = 512

    def __post_init__(self) -> None:
        if self.num_layers < 1:
            raise ValueError(f"num_layers must be >= 1, got {self.num_layers}")
        if self.hidden < 1 or self.intermediate < 1:
            raise ValueError("hidden and intermediate sizes must be positive")
        if self.hidden % self.num_heads != 0:
            raise ValueError(
                f"hidden {self.hidden} must be divisible by num_heads {self.num_heads}"
            )

    @property
    def head_dim(self) -> int:
        """Per-head dimensionality."""
        return self.hidden // self.num_heads


BERT_BASE = BertConfig()


class BertEncoderModel:
    """Runnable BERT encoder with deterministic random weights.

    ``softmax_fn`` selects the softmax implementation and ``backend`` the
    GEMM hardware (:mod:`repro.nn.backend`).  Passing
    ``backend=AnalogBackend(...)`` together with
    ``softmax_fn=RRAMSoftmaxEngine(...)`` runs the whole encoder —
    projections, attention score/context products, FFN *and* softmax — on
    simulated analog RRAM hardware; the embedding lookup stays digital.
    """

    def __init__(
        self,
        config: BertConfig = BERT_BASE,
        seed: int = 0,
        softmax_fn: Callable[[np.ndarray], np.ndarray] | None = None,
        backend: ComputeBackend | None = None,
        executor: "AttentionExecutor | None" = None,
    ) -> None:
        self.config = config
        rng = np.random.default_rng(seed)
        self.embedding = Embedding(
            config.vocab_size, config.max_positions, config.hidden, rng=rng
        )
        self.encoder = TransformerEncoder(
            config.num_layers,
            config.hidden,
            config.num_heads,
            config.intermediate,
            rng=rng,
            softmax_fn=softmax_fn,
            backend=backend,
            executor=executor,
        )

    def __call__(self, token_ids: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
        """Encode a ``(batch, seq_len)`` batch of token ids."""
        hidden = self.embedding(token_ids)
        return self.encoder(hidden, mask=mask)

    def attention_schedules(self) -> "list[ExecutedSchedule]":
        """Per-layer executed schedules of the most recent forward pass.

        Empty unless the model was built with an ``executor`` — with one,
        each layer's attention chain streams through the executed
        schedule and reports its measured timing here.
        """
        return self.encoder.collect_attention_schedules()


@dataclass(frozen=True)
class BertWorkload:
    """Closed-form operation counts of BERT-base inference at a given length.

    All counts are in primitive operations with a multiply-accumulate counted
    as two operations, matching the GOPs convention of the paper's Fig. 3.
    """

    config: BertConfig = BERT_BASE
    seq_len: int = 128
    batch_size: int = 1

    def __post_init__(self) -> None:
        require_positive_int(self.seq_len, "seq_len")
        require_positive_int(self.batch_size, "batch_size")

    # ------------------------------------------------------------------ #
    # request-level derivatives (serving)
    # ------------------------------------------------------------------ #
    def with_batch(self, batch_size: int) -> "BertWorkload":
        """The same model and length serving ``batch_size`` requests at once.

        The serving simulator prices every dispatched batch as one such
        workload: a batch of requests is a single batched inference.
        """
        return replace(self, batch_size=batch_size)

    def with_seq_len(self, seq_len: int) -> "BertWorkload":
        """The same model padded/truncated to ``seq_len`` tokens per request."""
        return replace(self, seq_len=seq_len)

    # ------------------------------------------------------------------ #
    # per-request GEMM shapes (batch-aware accelerator pricing)
    # ------------------------------------------------------------------ #
    def projection_shape(self) -> "GEMMShape":
        """One Q/K/V/output projection GEMM of a single request."""
        from repro.core.matmul_engine import GEMMShape

        cfg = self.config
        return GEMMShape(m=self.seq_len, k=cfg.hidden, n=cfg.hidden)

    def ffn_up_shape(self) -> "GEMMShape":
        """The position-wise FFN up-projection GEMM of a single request."""
        from repro.core.matmul_engine import GEMMShape

        cfg = self.config
        return GEMMShape(m=self.seq_len, k=cfg.hidden, n=cfg.intermediate)

    def ffn_down_shape(self) -> "GEMMShape":
        """The position-wise FFN down-projection GEMM of a single request."""
        from repro.core.matmul_engine import GEMMShape

        cfg = self.config
        return GEMMShape(m=self.seq_len, k=cfg.intermediate, n=cfg.hidden)

    def attention_score_row_shape(self) -> "GEMMShape":
        """One row of one head's ``Q K^T`` product (the pipeline granule)."""
        from repro.core.matmul_engine import GEMMShape

        return GEMMShape(m=1, k=self.config.head_dim, n=self.seq_len)

    def attention_context_row_shape(self) -> "GEMMShape":
        """One row of one head's ``A V`` product (the pipeline granule)."""
        from repro.core.matmul_engine import GEMMShape

        return GEMMShape(m=1, k=self.seq_len, n=self.config.head_dim)

    def weight_operand_shapes_per_layer(self) -> "tuple[GEMMShape, ...]":
        """The stationary weight operands one encoder layer programs.

        Four ``hidden x hidden`` projections plus the two FFN matrices —
        the operands a time-multiplexed tile bank writes once per
        dispatched batch (the ``"streamed"`` weight policy of
        :class:`~repro.core.batch_cost.BatchCostModel`).  Attention's
        dynamic ``K^T`` / ``V`` operands are not in this list: STAR, like
        ReTransformer, avoids rewriting them through matrix decomposition.
        """
        return (
            self.projection_shape(),
            self.projection_shape(),
            self.projection_shape(),
            self.projection_shape(),
            self.ffn_up_shape(),
            self.ffn_down_shape(),
        )

    # ------------------------------------------------------------------ #
    # per-component counts (single layer)
    # ------------------------------------------------------------------ #
    def _tokens(self) -> int:
        return self.batch_size * self.seq_len

    def qkv_projection_ops_per_layer(self) -> int:
        """Q/K/V/output projections: four ``hidden x hidden`` GEMMs."""
        cfg = self.config
        return 4 * 2 * self._tokens() * cfg.hidden * cfg.hidden

    def attention_matmul_ops_per_layer(self) -> int:
        """``QK^T`` and ``A V``: the sequence-length-quadratic GEMMs."""
        cfg = self.config
        per_head = 2 * 2 * self.batch_size * self.seq_len * self.seq_len * cfg.head_dim
        return cfg.num_heads * per_head

    def ffn_ops_per_layer(self) -> int:
        """Position-wise feed-forward GEMMs."""
        cfg = self.config
        return 2 * 2 * self._tokens() * cfg.hidden * cfg.intermediate

    def softmax_elements_per_layer(self) -> int:
        """Attention matrix entries processed by softmax in one layer."""
        return self.config.num_heads * self.batch_size * self.seq_len * self.seq_len

    def softmax_ops_per_layer(self) -> int:
        """Softmax primitive ops: max-compare, subtract, exp, add, divide (~5/elem)."""
        return 5 * self.softmax_elements_per_layer()

    # ------------------------------------------------------------------ #
    # whole-model counts
    # ------------------------------------------------------------------ #
    def matmul_ops(self) -> int:
        """All GEMM operations across the encoder stack."""
        per_layer = (
            self.qkv_projection_ops_per_layer()
            + self.attention_matmul_ops_per_layer()
            + self.ffn_ops_per_layer()
        )
        return self.config.num_layers * per_layer

    def softmax_ops(self) -> int:
        """Softmax operations across the encoder stack."""
        return self.config.num_layers * self.softmax_ops_per_layer()

    def softmax_elements(self) -> int:
        """Softmax matrix elements across the encoder stack."""
        return self.config.num_layers * self.softmax_elements_per_layer()

    def total_ops(self) -> int:
        """GEMM + softmax operations (the paper's GOPs accounting)."""
        return self.matmul_ops() + self.softmax_ops()

    def breakdown(self) -> dict[str, int]:
        """Per-component totals used by the latency-breakdown experiment."""
        layers = self.config.num_layers
        return {
            "qkv_projections": layers * self.qkv_projection_ops_per_layer(),
            "attention_matmuls": layers * self.attention_matmul_ops_per_layer(),
            "ffn": layers * self.ffn_ops_per_layer(),
            "softmax": self.softmax_ops(),
        }
