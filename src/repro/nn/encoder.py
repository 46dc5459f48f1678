"""Transformer encoder layer and stack (BERT-base topology).

Both pluggable pieces thread through here: the softmax implementation
(``softmax_fn``) and the GEMM compute backend (``backend``,
:mod:`repro.nn.backend`) are passed once and shared by every layer of the
stack, so one constructor argument switches the whole encoder between
exact NumPy and simulated analog crossbar hardware.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.nn.attention import MultiHeadAttention
from repro.nn.backend import ComputeBackend
from repro.nn.layers import FeedForward, LayerNorm

if TYPE_CHECKING:  # imported lazily at runtime to avoid an import cycle
    from repro.core.scheduler import AttentionExecutor, ExecutedSchedule

__all__ = ["TransformerEncoderLayer", "TransformerEncoder"]


class TransformerEncoderLayer:
    """One post-norm BERT encoder layer: MHA + Add&Norm + FFN + Add&Norm."""

    def __init__(
        self,
        hidden: int,
        num_heads: int,
        intermediate: int,
        rng: np.random.Generator | None = None,
        softmax_fn: Callable[[np.ndarray], np.ndarray] | None = None,
        backend: ComputeBackend | None = None,
        executor: "AttentionExecutor | None" = None,
    ) -> None:
        generator = rng if rng is not None else np.random.default_rng(0)
        self.attention = MultiHeadAttention(
            hidden,
            num_heads,
            rng=generator,
            softmax_fn=softmax_fn,
            backend=backend,
            executor=executor,
        )
        self.attention_norm = LayerNorm(hidden)
        self.feed_forward = FeedForward(hidden, intermediate, rng=generator, backend=backend)
        self.output_norm = LayerNorm(hidden)

    def __call__(self, x: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
        """Forward pass with residual connections."""
        attended = self.attention(x, mask=mask)
        x = self.attention_norm(x + attended)
        transformed = self.feed_forward(x)
        return self.output_norm(x + transformed)

    def flops(self, seq_len: int) -> dict[str, int]:
        """Per-operation FLOP counts for one sequence through this layer."""
        return {
            "qkv_projections": self.attention.projection_flops(seq_len),
            "attention_scores": self.attention.score_flops(seq_len),
            "softmax": self.attention.softmax_flops(seq_len),
            "feed_forward": self.feed_forward.flops(seq_len),
        }


class TransformerEncoder:
    """A stack of identical encoder layers sharing one softmax and one backend."""

    def __init__(
        self,
        num_layers: int,
        hidden: int,
        num_heads: int,
        intermediate: int,
        rng: np.random.Generator | None = None,
        softmax_fn: Callable[[np.ndarray], np.ndarray] | None = None,
        backend: ComputeBackend | None = None,
        executor: "AttentionExecutor | None" = None,
    ) -> None:
        if num_layers < 1:
            raise ValueError(f"num_layers must be >= 1, got {num_layers}")
        generator = rng if rng is not None else np.random.default_rng(0)
        self.layers = [
            TransformerEncoderLayer(
                hidden,
                num_heads,
                intermediate,
                rng=generator,
                softmax_fn=softmax_fn,
                backend=backend,
                executor=executor,
            )
            for _ in range(num_layers)
        ]

    def __call__(self, x: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
        """Forward pass through all layers."""
        for layer in self.layers:
            x = layer(x, mask=mask)
        return x

    def flops(self, seq_len: int) -> dict[str, int]:
        """Aggregated FLOP counts over all layers for one sequence."""
        totals: dict[str, int] = {}
        for layer in self.layers:
            for key, value in layer.flops(seq_len).items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def collect_attention_schedules(self) -> "list[ExecutedSchedule]":
        """Executed attention schedules captured by each layer (executor runs)."""
        schedules = []
        for layer in self.layers:
            if layer.attention.last_schedule is not None:
                schedules.append(layer.attention.last_schedule)
        return schedules
