"""NumPy layer implementations used to assemble the BERT-base encoder.

The layers are deliberately minimal — forward-only, float64, deterministic
initialisation from a seeded generator — because the reproduction never
trains a network: latency/energy experiments only need correct shapes and
operation counts, and accuracy experiments use the synthetic classification
task from :mod:`repro.workloads.classification` whose weights are also
generated, not learned.

Every GEMM runs on a pluggable :class:`~repro.nn.backend.ComputeBackend`:
the default :class:`~repro.nn.backend.IdealBackend` is exact NumPy, while
:class:`~repro.nn.backend.AnalogBackend` executes the same multiplications
on simulated RRAM crossbar tiles.
"""

from __future__ import annotations

import numpy as np

from repro.nn.backend import IDEAL_BACKEND, ComputeBackend
from repro.nn.functional import gelu, layer_norm

__all__ = ["Linear", "LayerNorm", "FeedForward", "Embedding"]


class Linear:
    """Affine layer ``y = x @ W + b`` with deterministic random initialisation.

    The matrix product runs on ``backend`` (exact NumPy by default); an
    :class:`~repro.nn.backend.AnalogBackend` programs ``W`` into a
    persistent crossbar tile bank on first use and streams every forward
    pass through it.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator | None = None,
        bias: bool = True,
        backend: ComputeBackend | None = None,
    ) -> None:
        if in_features < 1 or out_features < 1:
            raise ValueError(
                f"feature sizes must be positive, got {in_features} -> {out_features}"
            )
        self.in_features = in_features
        self.out_features = out_features
        self.backend: ComputeBackend = backend if backend is not None else IDEAL_BACKEND
        generator = rng if rng is not None else np.random.default_rng(0)
        scale = 1.0 / np.sqrt(in_features)
        self.weight = generator.normal(0.0, scale, size=(in_features, out_features))
        self.bias = np.zeros(out_features) if bias else None

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """Forward pass; input shape ``(..., in_features)``."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.in_features:
            raise ValueError(
                f"input feature size {x.shape[-1]} does not match layer "
                f"in_features {self.in_features}"
            )
        out = self.backend.linear(x, self.weight)
        if self.bias is not None:
            out = out + self.bias
        return out

    def flops(self, batch_tokens: int) -> int:
        """Multiply-accumulate FLOPs (2 per MAC) for ``batch_tokens`` tokens."""
        if batch_tokens < 0:
            raise ValueError(f"batch_tokens must be >= 0, got {batch_tokens}")
        return 2 * batch_tokens * self.in_features * self.out_features


class LayerNorm:
    """Layer normalisation with learnable scale/shift (initialised to identity)."""

    def __init__(self, hidden: int, epsilon: float = 1e-12) -> None:
        if hidden < 1:
            raise ValueError(f"hidden size must be positive, got {hidden}")
        self.hidden = hidden
        self.epsilon = epsilon
        self.gamma = np.ones(hidden)
        self.beta = np.zeros(hidden)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """Forward pass; normalises the last dimension."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.hidden:
            raise ValueError(
                f"input hidden size {x.shape[-1]} does not match LayerNorm "
                f"hidden {self.hidden}"
            )
        return layer_norm(x, self.gamma, self.beta, self.epsilon)


class FeedForward:
    """BERT position-wise feed-forward block: Linear -> GELU -> Linear.

    Both projections execute on ``backend`` (exact NumPy by default, analog
    crossbar GEMMs with :class:`~repro.nn.backend.AnalogBackend`).
    """

    def __init__(
        self,
        hidden: int,
        intermediate: int,
        rng: np.random.Generator | None = None,
        backend: ComputeBackend | None = None,
    ) -> None:
        generator = rng if rng is not None else np.random.default_rng(0)
        self.up = Linear(hidden, intermediate, rng=generator, backend=backend)
        self.down = Linear(intermediate, hidden, rng=generator, backend=backend)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """Forward pass."""
        return self.down(gelu(self.up(x)))

    def flops(self, batch_tokens: int) -> int:
        """Total FLOPs of both projections for ``batch_tokens`` tokens."""
        return self.up.flops(batch_tokens) + self.down.flops(batch_tokens)


class Embedding:
    """Token + position embedding table with deterministic initialisation."""

    def __init__(
        self,
        vocab_size: int,
        max_positions: int,
        hidden: int,
        rng: np.random.Generator | None = None,
    ) -> None:
        if vocab_size < 1 or max_positions < 1 or hidden < 1:
            raise ValueError("embedding dimensions must be positive")
        generator = rng if rng is not None else np.random.default_rng(0)
        self.vocab_size = vocab_size
        self.max_positions = max_positions
        self.hidden = hidden
        self.token_table = generator.normal(0.0, 0.02, size=(vocab_size, hidden))
        self.position_table = generator.normal(0.0, 0.02, size=(max_positions, hidden))

    def __call__(self, token_ids: np.ndarray) -> np.ndarray:
        """Embed a ``(batch, seq_len)`` array of token ids."""
        ids = np.asarray(token_ids, dtype=np.int64)
        if ids.ndim != 2:
            raise ValueError(f"token_ids must be (batch, seq_len), got shape {ids.shape}")
        if np.any(ids < 0) or np.any(ids >= self.vocab_size):
            raise ValueError(f"token ids must lie in [0, {self.vocab_size - 1}]")
        seq_len = ids.shape[1]
        if seq_len > self.max_positions:
            raise ValueError(
                f"sequence length {seq_len} exceeds max_positions {self.max_positions}"
            )
        positions = np.arange(seq_len)
        return self.token_table[ids] + self.position_table[positions][None, :, :]
