"""Tests for repro.utils.stats."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.stats import (
    geometric_mean,
    kl_divergence,
    percentile,
    percentile_range,
    relative_error,
    summarize,
)


class TestPercentile:
    def test_unweighted_matches_numpy_linear(self, rng):
        values = rng.normal(size=501)
        for q in (0.0, 25.0, 50.0, 95.0, 99.0, 100.0):
            assert percentile(values, q) == pytest.approx(np.percentile(values, q))

    def test_vector_q_returns_array(self, rng):
        values = rng.normal(size=100)
        result = percentile(values, (50.0, 95.0))
        assert isinstance(result, np.ndarray)
        assert result.shape == (2,)
        assert np.all(np.diff(result) >= 0)

    def test_equal_weights_match_unweighted(self, rng):
        values = rng.exponential(size=200)
        weighted = percentile(values, 90.0, weights=np.ones(200))
        assert weighted == pytest.approx(percentile(values, 90.0))

    def test_weights_shift_the_percentile(self):
        values = [1.0, 2.0, 3.0]
        heavy_tail = percentile(values, 50.0, weights=[1.0, 1.0, 100.0])
        heavy_head = percentile(values, 50.0, weights=[100.0, 1.0, 1.0])
        assert heavy_tail > percentile(values, 50.0) > heavy_head

    def test_single_dominant_weight(self):
        assert percentile([1.0, 5.0, 9.0], 50.0, weights=[0.0, 1.0, 0.0]) == 5.0

    def test_zero_weight_values_never_returned(self):
        # regression: a zero-weight extreme must not anchor the q=0/q=100 edges
        assert percentile([1.0, 2.0, 3.0], 100.0, weights=[1.0, 1.0, 0.0]) == 2.0
        assert percentile([1.0, 2.0, 3.0], 0.0, weights=[0.0, 1.0, 1.0]) == 2.0

    def test_single_value(self):
        assert percentile([3.5], 75.0) == 3.5
        assert percentile([3.5], 75.0, weights=[2.0]) == 3.5

    def test_interpolates_between_positions(self):
        # two points sit at positions 0 and 1: q=25 interpolates linearly
        assert percentile([0.0, 1.0], 25.0) == pytest.approx(0.25)

    def test_validation(self):
        with pytest.raises(ValueError):
            percentile([], 50.0)
        with pytest.raises(ValueError):
            percentile([1.0], 101.0)
        with pytest.raises(ValueError):
            percentile([1.0, 2.0], 50.0, weights=[1.0])
        with pytest.raises(ValueError):
            percentile([1.0, 2.0], 50.0, weights=[-1.0, 1.0])
        with pytest.raises(ValueError):
            percentile([1.0, 2.0], 50.0, weights=[0.0, 0.0])

    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=2,
            max_size=50,
        ),
        st.floats(min_value=0.0, max_value=100.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_result_lies_within_range(self, values, q):
        result = percentile(values, q)
        assert min(values) <= result <= max(values)


class TestSummaries:
    def test_summarize_keys_and_values(self):
        summary = summarize([1.0, 2.0, 3.0, 4.0])
        assert summary["count"] == 4
        assert summary["mean"] == pytest.approx(2.5)
        assert summary["min"] == 1.0
        assert summary["max"] == 4.0

    def test_summarize_reports_tail_percentiles(self):
        values = np.arange(101, dtype=np.float64)
        summary = summarize(values)
        assert summary["p50"] == pytest.approx(50.0)
        assert summary["p95"] == pytest.approx(95.0)
        assert summary["p99"] == pytest.approx(99.0)

    def test_summarize_weighted(self):
        summary = summarize([1.0, 2.0, 3.0], weights=[1.0, 1.0, 100.0])
        mean = (1 + 2 + 300) / 102
        assert summary["mean"] == pytest.approx(mean)
        assert summary["p50"] > 2.0
        # std must describe the same weighted distribution as the mean
        expected_var = (1 * (1 - mean) ** 2 + 1 * (2 - mean) ** 2 + 100 * (3 - mean) ** 2) / 102
        assert summary["std"] == pytest.approx(np.sqrt(expected_var))

    def test_summarize_empty_raises(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_percentile_range_covers_bulk(self, rng):
        values = rng.normal(0, 1, size=10000)
        low, high = percentile_range(values, coverage=0.95)
        inside = np.mean((values >= low) & (values <= high))
        assert inside == pytest.approx(0.95, abs=0.02)

    def test_percentile_range_invalid_coverage(self):
        with pytest.raises(ValueError):
            percentile_range(np.ones(10), coverage=0.0)

    def test_percentile_range_empty(self):
        with pytest.raises(ValueError):
            percentile_range(np.array([]))


class TestRatios:
    def test_geometric_mean_of_constant(self):
        assert geometric_mean([4.0, 4.0, 4.0]) == pytest.approx(4.0)

    def test_geometric_mean_of_reciprocal_pair(self):
        assert geometric_mean([2.0, 0.5]) == pytest.approx(1.0)

    def test_geometric_mean_rejects_non_positive(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])
        with pytest.raises(ValueError):
            geometric_mean([])

    def test_relative_error(self):
        assert relative_error(11.0, 10.0) == pytest.approx(0.1)
        assert relative_error(0.0, 0.0) == 0.0
        assert relative_error(1.0, 0.0) == float("inf")


class TestKLDivergence:
    def test_identical_distributions_have_zero_kl(self):
        p = np.array([0.2, 0.3, 0.5])
        assert kl_divergence(p, p) == pytest.approx(0.0, abs=1e-12)

    def test_kl_is_non_negative(self, rng):
        for _ in range(20):
            p = rng.dirichlet(np.ones(16))
            q = rng.dirichlet(np.ones(16))
            assert kl_divergence(p, q) >= -1e-12

    def test_kl_shape_mismatch(self):
        with pytest.raises(ValueError):
            kl_divergence(np.ones(3) / 3, np.ones(4) / 4)

    def test_kl_normalises_inputs(self):
        p = np.array([2.0, 3.0, 5.0])
        q = np.array([0.2, 0.3, 0.5])
        assert kl_divergence(p, q) == pytest.approx(0.0, abs=1e-12)

    @given(st.integers(min_value=2, max_value=32), st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_kl_non_negative_property(self, size, seed):
        generator = np.random.default_rng(seed)
        p = generator.dirichlet(np.ones(size))
        q = generator.dirichlet(np.ones(size))
        assert kl_divergence(p, q) >= -1e-12
