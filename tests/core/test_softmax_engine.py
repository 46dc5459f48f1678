"""Tests for the full RRAM softmax engine (the paper's core contribution)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SoftmaxEngineConfig
from repro.core.softmax_engine import RRAMSoftmaxEngine
from repro.nn.functional import softmax as exact_softmax
from repro.nn.softmax_models import FixedPointSoftmax
from repro.rram.noise import NoiseConfig
from repro.utils.fixed_point import CNEWS_FORMAT, COLA_FORMAT, MRPC_FORMAT


class TestEngineNumerics:
    def test_row_output_is_distribution(self, cnews_engine, score_rows):
        probs = cnews_engine.softmax_row(score_rows[0])
        assert probs.shape == score_rows[0].shape
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(probs >= 0)

    def test_matches_functional_fixed_point_model_exactly(self, dataset_format, score_rows):
        """The crossbar-level engine and the functional model must agree bit-for-bit."""
        engine = RRAMSoftmaxEngine(SoftmaxEngineConfig(fmt=dataset_format))
        functional = FixedPointSoftmax(dataset_format)
        np.testing.assert_array_equal(engine.softmax(score_rows), functional(score_rows))

    def test_close_to_exact_softmax(self, cnews_engine, score_rows):
        approx = cnews_engine.softmax(score_rows)
        exact = exact_softmax(score_rows)
        assert np.max(np.abs(approx - exact)) < 0.05

    def test_stage_intermediates_are_consistent(self, cnews_engine, score_rows):
        fmt = CNEWS_FORMAT
        block = score_rows[:1]
        quantized = np.rint(np.clip(block, fmt.signed_min_value, fmt.signed_max_value) / fmt.resolution) * fmt.resolution
        cam = cnews_engine.cam_sub.process_batch(block)
        exp = cnews_engine.exponential.process_batch(cam.difference_codes)
        probabilities = cnews_engine.divider.divide_batch(exp.exponentials, exp.denominators)
        assert cam.max_values[0] == quantized.max()
        np.testing.assert_array_equal(cam.differences, cam.max_values[:, None] - quantized)
        assert exp.denominators[0] == pytest.approx(exp.exponentials.sum())
        np.testing.assert_array_equal(probabilities, exp.exponentials / exp.denominators[:, None])
        np.testing.assert_array_equal(probabilities[0], cnews_engine.softmax_row(block[0]))

    def test_callable_interface_for_attention(self, cnews_engine, rng):
        scores = rng.normal(0, 5, size=(2, 3, 8))
        probs = cnews_engine(scores)
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-9)

    def test_axis_argument(self, cnews_engine, rng):
        scores = rng.normal(0, 5, size=(6, 4))
        probs = cnews_engine.softmax(scores, axis=0)
        np.testing.assert_allclose(probs.sum(axis=0), 1.0, atol=1e-9)

    def test_invariant_to_constant_shift_within_range(self, cnews_engine):
        scores = np.array([3.0, 1.0, -2.0, 0.5])
        base = cnews_engine.softmax_row(scores)
        shifted = cnews_engine.softmax_row(scores + 8.0)
        np.testing.assert_allclose(base, shifted, atol=1e-12)

    def test_rows_processed_counter(self, cnews_engine, score_rows):
        before = cnews_engine.rows_processed
        cnews_engine.softmax(score_rows)
        assert cnews_engine.rows_processed == before + score_rows.shape[0]

    @given(st.integers(min_value=0, max_value=2**31 - 1), st.integers(min_value=2, max_value=24))
    @settings(max_examples=20, deadline=None)
    def test_distribution_property_random_rows(self, seed, length):
        generator = np.random.default_rng(seed)
        engine = RRAMSoftmaxEngine(SoftmaxEngineConfig(fmt=CNEWS_FORMAT))
        scores = generator.uniform(-30, 30, size=length)
        probs = engine.softmax_row(scores)
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all((probs >= 0) & (probs <= 1 + 1e-12))

    def test_argmax_preserved_when_gap_exceeds_resolution(self, rng):
        engine = RRAMSoftmaxEngine(SoftmaxEngineConfig(fmt=CNEWS_FORMAT))
        for _ in range(10):
            scores = rng.uniform(-20, 20, size=16)
            scores[3] = scores.max() + 1.0  # gap far above the 0.25 resolution
            probs = engine.softmax_row(scores)
            assert int(np.argmax(probs)) == 3


class TestEngineWithNoise:
    def test_noise_changes_output_but_keeps_distribution(self, score_rows):
        noisy = RRAMSoftmaxEngine(
            SoftmaxEngineConfig(
                fmt=CNEWS_FORMAT, noise=NoiseConfig(read_noise_sigma=0.05, seed=3)
            )
        )
        ideal = RRAMSoftmaxEngine(SoftmaxEngineConfig(fmt=CNEWS_FORMAT))
        noisy_out = noisy.softmax(score_rows)
        ideal_out = ideal.softmax(score_rows)
        assert not np.allclose(noisy_out, ideal_out)
        # analog noise perturbs numerator and denominator independently, so
        # rows only sum to one approximately
        np.testing.assert_allclose(noisy_out.sum(axis=-1), 1.0, atol=0.2)

    def test_softmax_is_noise_tolerant(self, score_rows):
        """The paper's premise: softmax tolerates analog imprecision."""
        noisy = RRAMSoftmaxEngine(
            SoftmaxEngineConfig(
                fmt=CNEWS_FORMAT,
                noise=NoiseConfig(read_noise_sigma=0.02, programming_sigma=0.02, seed=5),
            )
        )
        exact = exact_softmax(score_rows)
        assert np.max(np.abs(noisy.softmax(score_rows) - exact)) < 0.1


class TestEngineCosts:
    def test_area_much_smaller_than_a_millimetre(self, cnews_engine):
        assert cnews_engine.area_mm2() < 0.1
        assert cnews_engine.area_um2() == pytest.approx(cnews_engine.area_mm2() * 1e6)

    def test_latency_energy_scale_with_row_length(self, cnews_engine):
        assert cnews_engine.row_latency_s(256) > cnews_engine.row_latency_s(128)
        assert cnews_engine.row_energy_j(256) > cnews_engine.row_energy_j(128)
        with pytest.raises(ValueError):
            cnews_engine.row_latency_s(0)

    def test_power_is_milliwatt_scale(self, cnews_engine):
        power = cnews_engine.power_w(128)
        assert 1e-5 < power < 0.05

    def test_mrpc_format_engine_is_larger_than_cola(self):
        large = RRAMSoftmaxEngine(SoftmaxEngineConfig(fmt=MRPC_FORMAT))
        small = RRAMSoftmaxEngine(SoftmaxEngineConfig(fmt=COLA_FORMAT, cam_sub_rows=128, exp_rows=128))
        assert large.area_um2() > small.area_um2()

    def test_row_ledger_components(self, cnews_engine):
        ledger = cnews_engine.row_ledger(128)
        names = {entry.name for entry in ledger}
        assert "CAM/SUB crossbar" in names
        assert any("exponential" in name for name in names)
        assert "divider" in names
        assert ledger.total_energy_j == pytest.approx(
            cnews_engine.row_energy_j(128), rel=0.35
        )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SoftmaxEngineConfig(fmt=MRPC_FORMAT, cam_sub_rows=256)  # needs 512 levels
        with pytest.raises(ValueError):
            SoftmaxEngineConfig(lut_frac_bits=0)
        with pytest.raises(ValueError):
            SoftmaxEngineConfig(counter_bits=2)
