"""Tests for repro.workloads: score profiles and the classification task."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.softmax_models import FixedPointSoftmax, ReferenceSoftmax
from repro.utils.fixed_point import CNEWS_FORMAT, FixedPointFormat
from repro.workloads.classification import ClassificationTask
from repro.workloads.scores import (
    CNEWS_PROFILE,
    COLA_PROFILE,
    DATASET_PROFILES,
    MRPC_PROFILE,
    AttentionScoreGenerator,
    ScoreProfile,
)


class TestScoreProfiles:
    def test_three_paper_datasets_registered(self):
        assert set(DATASET_PROFILES) == {"CNEWS", "MRPC", "CoLA"}

    def test_cola_has_smaller_range(self):
        assert COLA_PROFILE.score_range < CNEWS_PROFILE.score_range

    def test_mrpc_has_finer_top_structure(self):
        assert MRPC_PROFILE.top_cluster_spacing < CNEWS_PROFILE.top_cluster_spacing

    def test_invalid_profile(self):
        with pytest.raises(ValueError):
            ScoreProfile("bad", score_range=-1, top_cluster_size=2, top_cluster_spacing=0.5)
        with pytest.raises(ValueError):
            ScoreProfile("bad", score_range=10, top_cluster_size=0, top_cluster_spacing=0.5)


class TestScoreGenerator:
    def test_row_shape_and_determinism(self):
        gen_a = AttentionScoreGenerator(CNEWS_PROFILE, seed=3)
        gen_b = AttentionScoreGenerator(CNEWS_PROFILE, seed=3)
        rows_a = gen_a.rows(4, 32)
        rows_b = gen_b.rows(4, 32)
        assert rows_a.shape == (4, 32)
        np.testing.assert_allclose(rows_a, rows_b)

    def test_different_seeds_differ(self):
        a = AttentionScoreGenerator(CNEWS_PROFILE, seed=0).rows(2, 32)
        b = AttentionScoreGenerator(CNEWS_PROFILE, seed=1).rows(2, 32)
        assert not np.allclose(a, b)

    def test_observed_range_matches_profile(self, dataset_profile):
        generator = AttentionScoreGenerator(dataset_profile, seed=0)
        observed = generator.observed_range(num_rows=512)
        assert observed == pytest.approx(dataset_profile.score_range, rel=0.1)

    def test_range_implies_paper_integer_bits(self):
        for profile, expected_int_bits in ((CNEWS_PROFILE, 6), (MRPC_PROFILE, 6), (COLA_PROFILE, 5)):
            observed = AttentionScoreGenerator(profile, seed=0).observed_range(256)
            assert int(np.ceil(np.log2(observed))) == expected_int_bits

    def test_rows_rejects_bad_arguments(self):
        generator = AttentionScoreGenerator(CNEWS_PROFILE)
        with pytest.raises(ValueError):
            generator.rows(0)
        with pytest.raises(ValueError):
            generator.rows(1, seq_len=2)

    def test_row_max_is_positive_and_min_is_negative(self):
        rows = AttentionScoreGenerator(CNEWS_PROFILE, seed=5).rows(16)
        assert np.all(rows.max(axis=1) > 0)
        assert np.all(rows.min(axis=1) < 0)


class TestClassificationTask:
    def test_reference_softmax_gets_perfect_accuracy(self):
        task = ClassificationTask(CNEWS_PROFILE, num_examples=12, seq_len=16, seed=0)
        result = task.evaluate(ReferenceSoftmax())
        assert result.accuracy == 1.0
        assert result.num_examples == 12

    def test_reasonable_precision_keeps_high_accuracy(self):
        task = ClassificationTask(CNEWS_PROFILE, num_examples=16, seq_len=16, seed=1)
        result = task.evaluate(FixedPointSoftmax(CNEWS_FORMAT))
        assert result.accuracy >= 0.75

    def test_very_low_precision_degrades_more(self):
        task = ClassificationTask(MRPC_PROFILE, num_examples=24, seq_len=16, seed=2)
        good = task.evaluate(FixedPointSoftmax(FixedPointFormat(6, 3))).accuracy
        bad = task.evaluate(FixedPointSoftmax(FixedPointFormat(3, 1))).accuracy
        assert bad <= good

    def test_labels_cached_and_deterministic(self):
        task = ClassificationTask(CNEWS_PROFILE, num_examples=8, seq_len=16, seed=4)
        labels_a = task.reference_labels()
        labels_b = task.reference_labels()
        np.testing.assert_array_equal(labels_a, labels_b)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            ClassificationTask(CNEWS_PROFILE, num_examples=0)
        with pytest.raises(ValueError):
            ClassificationTask(CNEWS_PROFILE, num_classes=1)
