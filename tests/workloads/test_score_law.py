"""The block score draw keeps the row-by-row draw's law.

``AttentionScoreGenerator.rows`` draws a whole block with array calls;
``tests/score_law_reference.py`` keeps the original per-row loop.  A seed
gives the two different rows, so they are compared in law: over several
seeds and 40,000 pooled rows per profile, each row's spread, mean, std and
argmax position must pass a two-sample Kolmogorov–Smirnov test, and the
mean per-row KL divergence of the profile's 8/9/7-bit engine from exact
softmax must agree within four standard errors.  Per-row KL is heavy-tailed
(a few rows whose cluster straddles a quantisation step carry most of the
mean), which is why it is compared in its mean over a large pool rather
than row for row.  A block draw that skipped the per-row permutation, the
forced row minimum or the per-row clip fails at least one of these.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core import RRAMSoftmaxEngine, SoftmaxEngineConfig
from repro.nn.functional import softmax
from repro.utils.fixed_point import CNEWS_FORMAT, COLA_FORMAT, MRPC_FORMAT
from repro.workloads import CNEWS_PROFILE, COLA_PROFILE, MRPC_PROFILE, AttentionScoreGenerator
from score_law_reference import PerRowScoreGenerator

SEEDS = (0, 1, 2, 3)
ROWS_PER_SEED = 10_000
#: Two-sample KS critical value at alpha = 1e-3: sqrt(-ln(alpha / 2) / 2).
KS_C_ALPHA = math.sqrt(-math.log(1e-3 / 2) / 2)
#: Largest |z| of the mean-KL difference that counts as agreement.
MAX_Z = 4.0

CASES = [
    pytest.param((CNEWS_PROFILE, CNEWS_FORMAT, 256), id="CNEWS-L256"),
    pytest.param((MRPC_PROFILE, MRPC_FORMAT, 128), id="MRPC-L128"),
    pytest.param((COLA_PROFILE, COLA_FORMAT, 64), id="CoLA-L64"),
]


def pooled(generator_type, profile, length: int) -> np.ndarray:
    return np.concatenate(
        [generator_type(profile, seed=seed).rows(ROWS_PER_SEED, length) for seed in SEEDS]
    )


def row_kl(p: np.ndarray, q: np.ndarray, epsilon: float = 1e-12) -> np.ndarray:
    """Per-row ``repro.utils.stats.kl_divergence``."""
    p = np.clip(p, epsilon, None)
    q = np.clip(q, epsilon, None)
    p = p / p.sum(axis=-1, keepdims=True)
    q = q / q.sum(axis=-1, keepdims=True)
    return np.sum(p * np.log(p / q), axis=-1)


def row_statistics(rows: np.ndarray, fmt) -> dict[str, np.ndarray]:
    engine = RRAMSoftmaxEngine(SoftmaxEngineConfig(fmt=fmt))
    return {
        "spread": rows.max(axis=1) - rows.min(axis=1),
        "mean": rows.mean(axis=1),
        "std": rows.std(axis=1),
        "argmax": rows.argmax(axis=1).astype(np.float64),
        "kl": row_kl(softmax(rows), engine.softmax(rows)),
    }


def ks_statistic(a: np.ndarray, b: np.ndarray) -> float:
    """Largest gap between the two samples' empirical CDFs."""
    a, b = np.sort(a), np.sort(b)
    points = np.concatenate((a, b))
    cdf_a = np.searchsorted(a, points, side="right") / a.size
    cdf_b = np.searchsorted(b, points, side="right") / b.size
    return float(np.abs(cdf_a - cdf_b).max())


@pytest.fixture(scope="module", params=CASES)
def both_draws(request):
    profile, fmt, length = request.param
    block = row_statistics(pooled(AttentionScoreGenerator, profile, length), fmt)
    loop = row_statistics(pooled(PerRowScoreGenerator, profile, length), fmt)
    return block, loop


@pytest.mark.parametrize("statistic", ["spread", "mean", "std", "argmax"])
def test_row_statistic_has_the_per_row_law(both_draws, statistic):
    block, loop = (draw[statistic] for draw in both_draws)
    critical = KS_C_ALPHA * math.sqrt((block.size + loop.size) / (block.size * loop.size))
    assert ks_statistic(block, loop) < critical


def test_mean_engine_kl_has_the_per_row_law(both_draws):
    block, loop = (draw["kl"] for draw in both_draws)
    standard_error = math.sqrt(block.var() / block.size + loop.var() / loop.size)
    assert abs(block.mean() - loop.mean()) <= MAX_Z * standard_error


def test_argmax_position_is_uniform_in_every_seed():
    # a permutation shared by the rows of one block would pass the pooled
    # test only by luck; each seed's argmax histogram must look uniform
    length = 32
    for seed in SEEDS:
        rows = AttentionScoreGenerator(CNEWS_PROFILE, seed=seed).rows(ROWS_PER_SEED, length)
        counts = np.bincount(rows.argmax(axis=1), minlength=length)
        expected = ROWS_PER_SEED / length
        chi_square = float(((counts - expected) ** 2 / expected).sum())
        # chi-square with 31 degrees of freedom: mean 31, sd sqrt(62)
        assert chi_square < 31 + 5 * math.sqrt(62), (seed, counts)


def test_block_rows_keep_the_row_structure():
    profile = MRPC_PROFILE
    rows = AttentionScoreGenerator(profile, seed=5).rows(2_000, 40)
    half_range = profile.score_range / 2
    ordered = np.sort(rows, axis=1)[:, ::-1]
    row_max = ordered[:, 0]
    assert np.all((row_max >= 0.88 * half_range) & (row_max <= 0.99 * half_range))
    gaps = -np.diff(ordered[:, : profile.top_cluster_size], axis=1)
    spacing = profile.top_cluster_spacing
    assert np.all((gaps >= 0.6 * spacing - 1e-12) & (gaps <= 1.4 * spacing + 1e-12))
    background = ordered[:, profile.top_cluster_size :]
    assert np.all(background <= row_max[:, None] - 1.0)
    assert np.all(ordered[:, -1] >= -half_range)
    # the forced minimum reaches below -0.9 * half_range in every row
    assert np.all(ordered[:, -1] <= -0.9 * half_range)
