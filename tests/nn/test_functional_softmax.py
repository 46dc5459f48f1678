"""Tests for repro.nn.functional and the softmax variants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.functional import (
    gelu,
    layer_norm,
    log_softmax,
    relu,
    scaled_dot_product_attention,
    softmax,
)
from repro.nn.softmax_models import FixedPointSoftmax, ReferenceSoftmax
from repro.utils.fixed_point import CNEWS_FORMAT, MRPC_FORMAT, FixedPointFormat


class TestFunctional:
    def test_softmax_rows_sum_to_one(self, rng):
        x = rng.normal(0, 5, size=(4, 7, 13))
        probs = softmax(x)
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0)
        assert np.all(probs >= 0)

    def test_softmax_is_shift_invariant(self, rng):
        x = rng.normal(size=(3, 9))
        np.testing.assert_allclose(softmax(x), softmax(x + 100.0), atol=1e-12)

    def test_softmax_handles_large_values(self):
        x = np.array([[1000.0, 1000.0, -1000.0]])
        probs = softmax(x)
        assert np.all(np.isfinite(probs))
        np.testing.assert_allclose(probs[0, :2], 0.5, atol=1e-12)

    def test_softmax_axis(self, rng):
        x = rng.normal(size=(5, 6))
        np.testing.assert_allclose(softmax(x, axis=0).sum(axis=0), 1.0)

    def test_log_softmax_matches_log_of_softmax(self, rng):
        x = rng.normal(size=(4, 8))
        np.testing.assert_allclose(log_softmax(x), np.log(softmax(x)), atol=1e-10)

    def test_relu_and_gelu(self):
        x = np.array([-2.0, 0.0, 3.0])
        np.testing.assert_allclose(relu(x), [0.0, 0.0, 3.0])
        g = gelu(x)
        assert g[0] < 0 and abs(g[0]) < 0.2
        assert g[1] == 0.0
        assert g[2] == pytest.approx(3.0, abs=0.01)

    def test_layer_norm_zero_mean_unit_variance(self, rng):
        x = rng.normal(3, 5, size=(2, 4, 64))
        normed = layer_norm(x)
        np.testing.assert_allclose(normed.mean(axis=-1), 0.0, atol=1e-9)
        np.testing.assert_allclose(normed.std(axis=-1), 1.0, atol=1e-3)

    def test_layer_norm_affine(self, rng):
        x = rng.normal(size=(2, 8))
        gamma = np.full(8, 2.0)
        beta = np.ones(8)
        np.testing.assert_allclose(layer_norm(x, gamma, beta), 2.0 * layer_norm(x) + 1.0)

    def test_attention_output_shape_and_weights(self, rng):
        q = rng.normal(size=(2, 5, 8))
        k = rng.normal(size=(2, 5, 8))
        v = rng.normal(size=(2, 5, 8))
        out, weights = scaled_dot_product_attention(q, k, v)
        assert out.shape == (2, 5, 8)
        np.testing.assert_allclose(weights.sum(axis=-1), 1.0)

    def test_attention_mask(self, rng):
        q = rng.normal(size=(1, 4, 8))
        mask = np.zeros((4, 4))
        mask[:, -1] = -1e9
        _, weights = scaled_dot_product_attention(q, q, q, mask=mask)
        np.testing.assert_allclose(weights[..., -1], 0.0, atol=1e-9)

    def test_attention_dim_mismatch(self, rng):
        with pytest.raises(ValueError):
            scaled_dot_product_attention(
                rng.normal(size=(1, 4, 8)), rng.normal(size=(1, 4, 7)), rng.normal(size=(1, 4, 7))
            )


class TestFixedPointSoftmax:
    def test_output_is_probability_distribution(self, score_rows):
        probs = FixedPointSoftmax(CNEWS_FORMAT)(score_rows)
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-9)
        assert np.all(probs >= 0)

    def test_close_to_exact_softmax_on_profile_scores(self, score_rows):
        probs = FixedPointSoftmax(CNEWS_FORMAT)(score_rows)
        exact = softmax(score_rows)
        assert np.max(np.abs(probs - exact)) < 0.05

    def test_more_frac_bits_is_more_accurate(self, score_rows):
        exact = softmax(score_rows)
        coarse = FixedPointSoftmax(FixedPointFormat(6, 1), lut_frac_bits=10)(score_rows)
        fine = FixedPointSoftmax(FixedPointFormat(6, 4), lut_frac_bits=10)(score_rows)
        assert np.abs(fine - exact).mean() < np.abs(coarse - exact).mean()

    def test_mrpc_format_resolution(self, score_rows):
        # 9-bit MRPC format has finer resolution than 8-bit CNEWS format
        exact = softmax(score_rows)
        err_cnews = np.abs(FixedPointSoftmax(CNEWS_FORMAT, lut_frac_bits=10)(score_rows) - exact).mean()
        err_mrpc = np.abs(FixedPointSoftmax(MRPC_FORMAT, lut_frac_bits=10)(score_rows) - exact).mean()
        assert err_mrpc <= err_cnews + 1e-12

    def test_handles_axis_argument(self, rng):
        x = rng.normal(0, 5, size=(6, 4))
        fp = FixedPointSoftmax(CNEWS_FORMAT)
        np.testing.assert_allclose(fp(x, axis=0).sum(axis=0), 1.0, atol=1e-9)

    def test_uniform_fallback_when_all_exponentials_round_to_zero(self):
        # craft a row whose non-max entries all land far below the max and
        # whose max is clipped: LUT still gives 1 for the max, so use a case
        # with quotient truncation instead
        fp = FixedPointSoftmax(CNEWS_FORMAT, quotient_bits=2)
        probs = fp(np.array([[0.0, -60.0, -60.0]]))
        assert np.all(probs >= 0)

    def test_quotient_truncation_reduces_precision(self, score_rows):
        full = FixedPointSoftmax(CNEWS_FORMAT)(score_rows)
        truncated = FixedPointSoftmax(CNEWS_FORMAT, quotient_bits=4)(score_rows)
        assert np.all(truncated <= full + 1e-12)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            FixedPointSoftmax(CNEWS_FORMAT, lut_frac_bits=0)
        with pytest.raises(ValueError):
            FixedPointSoftmax(CNEWS_FORMAT, quotient_bits=-1)

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_distribution_property(self, seed):
        generator = np.random.default_rng(seed)
        x = generator.normal(0, 10, size=(3, 17))
        probs = FixedPointSoftmax(CNEWS_FORMAT)(x)
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-9)
        assert np.all(probs >= 0) and np.all(probs <= 1 + 1e-12)


class TestReference:
    def test_reference_wrapper_equals_functional(self, rng):
        x = rng.normal(size=(4, 9))
        np.testing.assert_allclose(ReferenceSoftmax()(x), softmax(x))
