"""Synthetic text-classification task for accuracy-vs-precision experiments.

The paper's bit-width table is justified by "high model accuracy" on three
text-classification datasets.  With no trained BERT or original data
available offline, the accuracy experiments use a deterministic synthetic
task with the same *structure*: sequences of token embeddings are encoded by
a small transformer, mean-pooled and classified by a linear head, and the
label of each example is defined as the prediction of the *float-softmax*
model (a teacher-consistency task).  Accuracy of a quantised-softmax model
is then its agreement with those reference labels — exactly the degradation
metric the bit-width analysis needs, with 100 % accuracy attainable by
construction when no quantisation error is present.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.nn.encoder import TransformerEncoder
from repro.nn.layers import Linear
from repro.nn.softmax_models import ReferenceSoftmax
from repro.workloads.scores import ScoreProfile

__all__ = ["ClassificationTask", "ClassificationResult"]


@dataclass(frozen=True)
class ClassificationResult:
    """Outcome of evaluating one softmax implementation on the task."""

    accuracy: float
    agreement: float
    num_examples: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.accuracy <= 1.0:
            raise ValueError(f"accuracy must be in [0, 1], got {self.accuracy}")
        if not 0.0 <= self.agreement <= 1.0:
            raise ValueError(f"agreement must be in [0, 1], got {self.agreement}")


class ClassificationTask:
    """Teacher-consistency classification benchmark with swappable softmax.

    Parameters
    ----------
    profile:
        Dataset score profile; its range scales the encoder inputs so the
        attention scores exercise the same dynamic range as the synthetic
        score generator.
    num_examples:
        Number of sequences in the evaluation set.
    seq_len:
        Sequence length (defaults to the profile's typical length).
    num_classes:
        Number of output classes.
    hidden / num_heads / num_layers / intermediate:
        Encoder topology; defaults are a slice of BERT-base small enough to
        evaluate quickly yet structurally identical.
    seed:
        Controls both the model weights and the evaluation data.
    """

    def __init__(
        self,
        profile: ScoreProfile,
        num_examples: int = 64,
        seq_len: int | None = None,
        num_classes: int = 4,
        hidden: int = 64,
        num_heads: int = 4,
        num_layers: int = 2,
        intermediate: int = 128,
        seed: int = 0,
    ) -> None:
        if num_examples < 1:
            raise ValueError(f"num_examples must be >= 1, got {num_examples}")
        if num_classes < 2:
            raise ValueError(f"num_classes must be >= 2, got {num_classes}")
        self.profile = profile
        self.num_examples = num_examples
        self.seq_len = seq_len if seq_len is not None else profile.typical_seq_len
        self.num_classes = num_classes
        self.hidden = hidden
        self.num_heads = num_heads
        self.num_layers = num_layers
        self.intermediate = intermediate
        self.seed = seed

        rng = np.random.default_rng(seed)
        # input scale chosen so attention scores span roughly the profile range
        head_dim = hidden // num_heads
        self._input_scale = np.sqrt(np.sqrt(head_dim) * profile.score_range / head_dim)
        self._inputs = rng.normal(
            0.0, self._input_scale, size=(num_examples, self.seq_len, hidden)
        )
        self._head_rng_seed = int(rng.integers(0, 2**31 - 1))
        self._reference_labels: np.ndarray | None = None

    # ------------------------------------------------------------------ #
    # model construction
    # ------------------------------------------------------------------ #
    def _build_model(
        self, softmax_fn: Callable[[np.ndarray], np.ndarray]
    ) -> tuple[TransformerEncoder, Linear]:
        rng = np.random.default_rng(self.seed + 1)
        encoder = TransformerEncoder(
            self.num_layers,
            self.hidden,
            self.num_heads,
            self.intermediate,
            rng=rng,
            softmax_fn=softmax_fn,
        )
        head = Linear(self.hidden, self.num_classes, rng=np.random.default_rng(self._head_rng_seed))
        return encoder, head

    def _predict(self, softmax_fn: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        encoder, head = self._build_model(softmax_fn)
        encoded = encoder(self._inputs)
        pooled = encoded.mean(axis=1)
        logits = head(pooled)
        return np.argmax(logits, axis=-1)

    # ------------------------------------------------------------------ #
    # evaluation
    # ------------------------------------------------------------------ #
    def reference_labels(self) -> np.ndarray:
        """Labels defined by the float-softmax teacher (computed once, cached)."""
        if self._reference_labels is None:
            self._reference_labels = self._predict(ReferenceSoftmax())
        return self._reference_labels.copy()

    def evaluate(self, softmax_fn: Callable[[np.ndarray], np.ndarray]) -> ClassificationResult:
        """Accuracy of a model whose attention softmax is ``softmax_fn``."""
        labels = self.reference_labels()
        predictions = self._predict(softmax_fn)
        agreement = float(np.mean(predictions == labels))
        return ClassificationResult(
            accuracy=agreement, agreement=agreement, num_examples=self.num_examples
        )
