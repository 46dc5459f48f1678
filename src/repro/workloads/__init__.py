"""Synthetic workloads: attention-score distributions and a classification task."""

from repro.workloads.classification import ClassificationResult, ClassificationTask
from repro.workloads.scores import (
    CNEWS_PROFILE,
    COLA_PROFILE,
    DATASET_PROFILES,
    MRPC_PROFILE,
    AttentionScoreGenerator,
    ScoreProfile,
)

__all__ = [
    "ScoreProfile",
    "AttentionScoreGenerator",
    "CNEWS_PROFILE",
    "MRPC_PROFILE",
    "COLA_PROFILE",
    "DATASET_PROFILES",
    "ClassificationTask",
    "ClassificationResult",
]
