"""Row-by-row score draw: the law reference of ``AttentionScoreGenerator.rows``.

This is the generator's original loop, verbatim: six RNG calls and a
shuffle per row.  The library draws a whole block with array calls
instead, which keeps each row's law but consumes the stream in another
order, so a seed yields different rows.  ``tests/workloads/test_score_law.py``
checks that the two agree in law; ``tests/conftest.py`` draws its
``score_rows`` fixture from this loop, so the tests that pin figures of
those rows keep their inputs.
"""

from __future__ import annotations

import numpy as np

from repro.workloads import ScoreProfile


class PerRowScoreGenerator:
    """Draws score rows one Python iteration per row."""

    def __init__(self, profile: ScoreProfile, seed: int = 0) -> None:
        self.profile = profile
        self._rng = np.random.default_rng(seed)

    def rows(self, num_rows: int, seq_len: int | None = None) -> np.ndarray:
        profile = self.profile
        length = seq_len if seq_len is not None else profile.typical_seq_len
        rng = self._rng
        half_range = profile.score_range / 2.0

        rows = np.empty((num_rows, length), dtype=np.float64)
        for i in range(num_rows):
            # the row maximum sits near +half_range with a little jitter
            row_max = half_range * rng.uniform(0.88, 0.99)
            cluster_size = profile.top_cluster_size
            gaps = rng.uniform(0.6, 1.4, size=cluster_size - 1) * profile.top_cluster_spacing
            cluster = row_max - np.concatenate(([0.0], np.cumsum(gaps)))

            num_background = length - cluster_size
            # background scores: mostly negative, spanning down to -half_range
            background = rng.normal(
                loc=-0.45 * profile.score_range,
                scale=profile.background_std * profile.score_range,
                size=num_background,
            )
            background = np.clip(background, -half_range * rng.uniform(0.9, 1.0), row_max - 1.0)
            # guarantee the row minimum reaches close to the bottom of the range
            background[0] = -half_range * rng.uniform(0.9, 0.99)

            row = np.concatenate((cluster, background))
            rng.shuffle(row)
            rows[i] = row
        return rows
