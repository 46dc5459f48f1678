"""Synthetic attention-score distributions standing in for CNEWS / MRPC / CoLA.

The paper analyses "the data range of all x_i across three popular datasets
for the BERT-base model" to size the softmax engine's fixed-point format.
The trained model and the original datasets are not available offline, so
each dataset is replaced by a *score profile*: a generative model of
pre-softmax attention-score rows whose dynamic range and fine structure
match what the paper's bit-width table implies:

* **CNEWS** — row range just under 64 (6 integer bits), coarse structure
  near the maximum (0.25 resolution suffices -> 2 fractional bits);
* **MRPC**  — row range just under 64 (6 integer bits), fine structure near
  the maximum (0.125 resolution needed -> 3 fractional bits);
* **CoLA**  — row range just under 32 (5 integer bits), coarse structure
  (2 fractional bits).

Each generated row mimics a row of the ``QK^T / sqrt(d)`` matrix: a bulk of
background scores, a cluster of near-maximum scores whose spacing sets the
precision requirement, and a long negative tail.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.validation import require_positive

__all__ = [
    "ScoreProfile",
    "CNEWS_PROFILE",
    "MRPC_PROFILE",
    "COLA_PROFILE",
    "DATASET_PROFILES",
    "AttentionScoreGenerator",
]


@dataclass(frozen=True)
class ScoreProfile:
    """Generative description of one dataset's attention-score rows.

    Attributes
    ----------
    name:
        Dataset label.
    score_range:
        Target 99.9th-percentile spread (max - min) of a row; determines the
        integer bit requirement (``ceil(log2(score_range))``).
    top_cluster_size:
        How many scores per row sit close to the maximum and therefore carry
        most of the softmax probability mass.
    top_cluster_spacing:
        Typical gap between adjacent scores inside the top cluster; this is
        what the fractional bits must resolve.
    background_std:
        Standard deviation of the background scores (relative to the range).
    typical_seq_len:
        Sequence length the paper uses for this dataset's evaluation.
    """

    name: str
    score_range: float
    top_cluster_size: int
    top_cluster_spacing: float
    background_std: float = 0.12
    typical_seq_len: int = 128

    def __post_init__(self) -> None:
        require_positive(self.score_range, "score_range")
        require_positive(self.top_cluster_spacing, "top_cluster_spacing")
        require_positive(self.background_std, "background_std")
        if self.top_cluster_size < 1:
            raise ValueError(f"top_cluster_size must be >= 1, got {self.top_cluster_size}")
        if self.typical_seq_len < 2:
            raise ValueError(f"typical_seq_len must be >= 2, got {self.typical_seq_len}")


# Profiles mirroring the ranges implied by the paper's bit-width table.
CNEWS_PROFILE = ScoreProfile(
    name="CNEWS",
    score_range=56.0,
    top_cluster_size=3,
    top_cluster_spacing=1.3,
    typical_seq_len=128,
)
MRPC_PROFILE = ScoreProfile(
    name="MRPC",
    score_range=56.0,
    top_cluster_size=12,
    top_cluster_spacing=0.13,
    typical_seq_len=128,
)
COLA_PROFILE = ScoreProfile(
    name="CoLA",
    score_range=26.0,
    top_cluster_size=3,
    top_cluster_spacing=1.3,
    typical_seq_len=64,
)

DATASET_PROFILES: dict[str, ScoreProfile] = {
    profile.name: profile for profile in (CNEWS_PROFILE, MRPC_PROFILE, COLA_PROFILE)
}


class AttentionScoreGenerator:
    """Draws synthetic pre-softmax attention-score rows for one profile."""

    def __init__(self, profile: ScoreProfile, seed: int = 0) -> None:
        self.profile = profile
        self._rng = np.random.default_rng(seed)

    def rows(self, num_rows: int, seq_len: int | None = None) -> np.ndarray:
        """Generate ``num_rows`` score rows of length ``seq_len``.

        Each row contains: a maximum score near the top of the range, a
        cluster of ``top_cluster_size - 1`` runner-up scores spaced by
        roughly ``top_cluster_spacing`` below it, and background scores
        spread across the remaining range with a negative bias (attention
        rows are dominated by a few keys), in a uniformly random order.

        The whole block is drawn with array calls: one in-place normal
        block whose first ``top_cluster_size`` columns are then overwritten
        by the cluster, per-row maxima, cluster gaps, clip bounds and
        forced minima, and one independent in-place permutation per row.
        Rows are i.i.d. under the same per-row law as a row-by-row draw
        (the loop kept in ``tests/score_law_reference.py``), but a seed
        yields different rows than that loop, which consumes the stream
        row by row.
        """
        if num_rows < 1:
            raise ValueError(f"num_rows must be >= 1, got {num_rows}")
        profile = self.profile
        length = seq_len if seq_len is not None else profile.typical_seq_len
        cluster_size = profile.top_cluster_size
        if length < cluster_size + 1:
            raise ValueError(
                f"seq_len {length} too short for top cluster of {cluster_size}"
            )
        rng = self._rng
        half_range = profile.score_range / 2.0

        # background scores: mostly negative, spanning down to -half_range
        rows = rng.normal(
            loc=-0.45 * profile.score_range,
            scale=profile.background_std * profile.score_range,
            size=(num_rows, length),
        )
        # the row maximum sits near +half_range with a little jitter
        row_max = half_range * rng.uniform(0.88, 0.99, size=num_rows)
        gaps = rng.uniform(0.6, 1.4, size=(num_rows, cluster_size - 1))
        gaps *= profile.top_cluster_spacing
        low = -half_range * rng.uniform(0.9, 1.0, size=num_rows)
        np.clip(rows, low[:, None], (row_max - 1.0)[:, None], out=rows)
        # guarantee the row minimum reaches close to the bottom of the range
        rows[:, cluster_size] = -half_range * rng.uniform(0.9, 0.99, size=num_rows)
        rows[:, 0] = row_max
        rows[:, 1:cluster_size] = row_max[:, None] - np.cumsum(gaps, axis=1)
        return rng.permuted(rows, axis=1, out=rows)

    def observed_range(self, num_rows: int = 2048, seq_len: int | None = None) -> float:
        """Empirical 99.9th-percentile row spread, used by the bit-width analysis."""
        rows = self.rows(num_rows, seq_len)
        spreads = rows.max(axis=1) - rows.min(axis=1)
        return float(np.percentile(spreads, 99.9))
