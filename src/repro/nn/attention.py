"""Multi-head self-attention with pluggable softmax and compute backend.

Two pieces are interchangeable:

* the **softmax callable** — the accuracy experiments swap
  :class:`~repro.nn.softmax_models.ReferenceSoftmax` for
  :class:`~repro.nn.softmax_models.FixedPointSoftmax` (STAR's datapath)
  without touching the rest of the encoder, and the cycle-accurate
  :class:`~repro.core.softmax_engine.RRAMSoftmaxEngine` plugs in the same
  way: its ``__call__`` flattens the whole ``(batch, heads, seq, seq)``
  score tensor into one block for the vectorized batch backend;
* the **compute backend** — every GEMM of the block (the four projections
  plus the dynamic ``QK^T`` score and ``A V`` context products) runs on a
  :class:`~repro.nn.backend.ComputeBackend`.  With
  :class:`~repro.nn.backend.AnalogBackend` the attention scores are
  produced by crossbar GEMM tiles and can feed the RRAM softmax engine —
  the paper's full analog attention datapath.

The attention-score hooks expose the raw ``QK^T/sqrt(d)`` scores that the
bit-width analysis of Section II consumes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.nn.backend import IDEAL_BACKEND, ComputeBackend
from repro.nn.functional import softmax as exact_softmax
from repro.nn.layers import Linear

if TYPE_CHECKING:  # imported lazily at runtime to avoid an import cycle
    from repro.core.scheduler import AttentionExecutor, ExecutedSchedule

__all__ = ["MultiHeadAttention"]

SoftmaxFn = Callable[[np.ndarray], np.ndarray]


class MultiHeadAttention:
    """Standard BERT multi-head self-attention block (forward only)."""

    def __init__(
        self,
        hidden: int,
        num_heads: int,
        rng: np.random.Generator | None = None,
        softmax_fn: SoftmaxFn | None = None,
        backend: ComputeBackend | None = None,
        executor: "AttentionExecutor | None" = None,
    ) -> None:
        if hidden < 1 or num_heads < 1:
            raise ValueError(
                f"hidden and num_heads must be positive, got {hidden}, {num_heads}"
            )
        if hidden % num_heads != 0:
            raise ValueError(
                f"hidden size {hidden} must be divisible by num_heads {num_heads}"
            )
        generator = rng if rng is not None else np.random.default_rng(0)
        self.hidden = hidden
        self.num_heads = num_heads
        self.head_dim = hidden // num_heads
        self.softmax_fn: SoftmaxFn = softmax_fn if softmax_fn is not None else exact_softmax
        self.backend: ComputeBackend = backend if backend is not None else IDEAL_BACKEND
        self.executor = executor
        self.last_schedule: "ExecutedSchedule | None" = None
        self.query_proj = Linear(hidden, hidden, rng=generator, backend=backend)
        self.key_proj = Linear(hidden, hidden, rng=generator, backend=backend)
        self.value_proj = Linear(hidden, hidden, rng=generator, backend=backend)
        self.output_proj = Linear(hidden, hidden, rng=generator, backend=backend)
        self.last_scores: np.ndarray | None = None
        self.last_weights: np.ndarray | None = None

    # ------------------------------------------------------------------ #
    # forward
    # ------------------------------------------------------------------ #
    def _split_heads(self, x: np.ndarray) -> np.ndarray:
        batch, seq_len, _ = x.shape
        x = x.reshape(batch, seq_len, self.num_heads, self.head_dim)
        return np.transpose(x, (0, 2, 1, 3))  # (batch, heads, seq, head_dim)

    def _merge_heads(self, x: np.ndarray) -> np.ndarray:
        batch, _, seq_len, _ = x.shape
        x = np.transpose(x, (0, 2, 1, 3))
        return x.reshape(batch, seq_len, self.hidden)

    def __call__(self, x: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
        """Forward pass; ``x`` is ``(batch, seq_len, hidden)``.

        The raw scores and the post-softmax weights of the call are kept on
        ``last_scores`` / ``last_weights`` for the analysis code.  The
        softmax callable receives the full 4-D score tensor, so engine-backed
        softmax implementations process all ``batch * heads * seq`` rows in
        one vectorized batch.  Both dynamic GEMMs (``QK^T`` and
        ``weights @ V``) run on the configured compute backend.

        With an ``executor`` attached, the whole
        ``score GEMM -> softmax -> context GEMM`` chain instead runs, one
        (batch, head) block at a time, through the executed schedule of
        :class:`~repro.core.scheduler.AttentionExecutor` (its MatMul engine
        and softmax-engine pool replace the backend/softmax callable for
        these three stages), and the measured
        :class:`~repro.core.scheduler.ExecutedSchedule` of the forward is
        kept on ``last_schedule``.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 3 or x.shape[-1] != self.hidden:
            raise ValueError(
                f"input must be (batch, seq, {self.hidden}), got shape {x.shape}"
            )
        query = self._split_heads(self.query_proj(x))
        key = self._split_heads(self.key_proj(x))
        value = self._split_heads(self.value_proj(x))

        if self.executor is not None:
            executed = self.executor.run(
                query, key, value, scale=1.0 / np.sqrt(self.head_dim), mask=mask
            )
            self.last_scores = executed.scores
            self.last_weights = executed.weights
            self.last_schedule = executed.schedule
            return self.output_proj(self._merge_heads(executed.context))

        scores = self.backend.matmul(query, np.swapaxes(key, -1, -2)) / np.sqrt(self.head_dim)
        if mask is not None:
            scores = scores + np.asarray(mask, dtype=np.float64)
        self.last_scores = scores
        weights = self.softmax_fn(scores)
        self.last_weights = weights

        context = self.backend.matmul(weights, value)
        return self.output_proj(self._merge_heads(context))

    # ------------------------------------------------------------------ #
    # operation counting
    # ------------------------------------------------------------------ #
    def projection_flops(self, seq_len: int) -> int:
        """FLOPs of the four hidden x hidden projections for one sequence."""
        per_projection = 2 * seq_len * self.hidden * self.hidden
        return 4 * per_projection

    def score_flops(self, seq_len: int) -> int:
        """FLOPs of ``QK^T`` and ``weights @ V`` for one sequence."""
        qkt = 2 * self.num_heads * seq_len * seq_len * self.head_dim
        wv = 2 * self.num_heads * seq_len * seq_len * self.head_dim
        return qkt + wv

    def softmax_elements(self, seq_len: int) -> int:
        """Number of attention-score elements passed through softmax."""
        return self.num_heads * seq_len * seq_len

    def softmax_flops(self, seq_len: int) -> int:
        """Softmax FLOPs: max, subtract, exp, sum and divide per element (~5 ops)."""
        return 5 * self.softmax_elements(seq_len)
