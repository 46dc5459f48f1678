"""Tests for the CAM/SUB crossbar and the exponential unit (Figs. 1 and 2)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.cam_sub import CamSubCrossbar
from repro.core.config import SoftmaxEngineConfig
from repro.core.counter import CounterBank
from repro.core.divider import DividerUnit
from repro.core.exponent import ExponentialUnit
from repro.rram.lut import exponential_lut_entries
from repro.rram.noise import NoiseConfig
from repro.utils.fixed_point import CNEWS_FORMAT, COLA_FORMAT, MRPC_FORMAT, FixedPointFormat


def _quantized(fmt, scores: np.ndarray) -> np.ndarray:
    """Scores clipped to the format's signed range and rounded onto its grid."""
    clipped = np.clip(scores, fmt.signed_min_value, fmt.signed_max_value)
    return np.rint(clipped / fmt.resolution) * fmt.resolution


class TestCamSub:
    def test_finds_maximum_of_quantised_scores(self, rng):
        cam_sub = CamSubCrossbar(SoftmaxEngineConfig(fmt=CNEWS_FORMAT))
        scores = rng.uniform(-30, 30, size=(1, 32))
        result = cam_sub.process_batch(scores)
        assert result.max_values[0] == _quantized(CNEWS_FORMAT, scores).max()

    def test_differences_are_non_negative_and_exact(self, rng):
        cam_sub = CamSubCrossbar(SoftmaxEngineConfig(fmt=CNEWS_FORMAT))
        scores = rng.uniform(-30, 30, size=(1, 64))
        result = cam_sub.process_batch(scores)
        quantised = _quantized(CNEWS_FORMAT, scores)
        np.testing.assert_allclose(result.differences, quantised.max() - quantised, atol=1e-12)
        assert np.all(result.differences >= 0)

    def test_difference_codes_match_differences(self, rng):
        fmt = MRPC_FORMAT
        cam_sub = CamSubCrossbar(SoftmaxEngineConfig(fmt=fmt))
        result = cam_sub.process_batch(rng.uniform(-30, 30, size=(1, 16)))
        np.testing.assert_allclose(result.difference_codes * fmt.resolution, result.differences)

    def test_fig1_toy_example_max_at_expected_row(self):
        # four inputs, the max must be found regardless of position
        cam_sub = CamSubCrossbar(SoftmaxEngineConfig(fmt=FixedPointFormat(3, 1)))
        scores = np.array([[1.5, 3.0, -2.0, 0.5]])
        result = cam_sub.process_batch(scores)
        assert result.max_values[0] == pytest.approx(3.0)
        np.testing.assert_allclose(result.differences[0], [1.5, 0.0, 5.0, 2.5])

    def test_negative_scores_only(self):
        cam_sub = CamSubCrossbar(SoftmaxEngineConfig(fmt=CNEWS_FORMAT))
        result = cam_sub.process_batch(np.array([[-5.0, -10.0, -1.25]]))
        assert result.max_values[0] == pytest.approx(-1.25)

    def test_clipping_beyond_format_range(self):
        fmt = COLA_FORMAT  # offset-binary signed range [-16, +15.75]
        cam_sub = CamSubCrossbar(SoftmaxEngineConfig(fmt=fmt))
        result = cam_sub.process_batch(np.array([[100.0, 0.0]]))
        assert result.max_values[0] == pytest.approx(fmt.signed_max_value)

    def test_max_row_is_first_merged_hit(self):
        cam_sub = CamSubCrossbar(SoftmaxEngineConfig(fmt=FixedPointFormat(3, 1)))
        result = cam_sub.process_batch(np.array([[0.0, 2.0], [0.0, 5.0]]))
        # stored descending: row index of larger value is smaller
        assert result.max_rows[1] < result.max_rows[0]

    def test_empty_input_rejected(self):
        cam_sub = CamSubCrossbar()
        with pytest.raises(ValueError):
            cam_sub.process_batch(np.empty((1, 0)))

    def test_costs_scale_with_sequence_length(self):
        cam_sub = CamSubCrossbar()
        assert cam_sub.row_latency_s(256) > cam_sub.row_latency_s(128)
        assert cam_sub.row_energy_j(256) > cam_sub.row_energy_j(128)
        assert cam_sub.area_um2() > 0
        assert cam_sub.power_w() > 0
        with pytest.raises(ValueError):
            cam_sub.row_latency_s(0)


class TestExponentialUnit:
    def test_exponentials_match_lut_rule(self):
        config = SoftmaxEngineConfig(fmt=CNEWS_FORMAT)
        unit = ExponentialUnit(config)
        codes = np.array([[0, 1, 4, 8]])
        result = unit.process_batch(codes)
        expected = exponential_lut_entries(-codes * CNEWS_FORMAT.resolution, config.lut_frac_bits)
        np.testing.assert_allclose(result.exponentials, expected)

    def test_out_of_range_codes_give_zero(self):
        config = SoftmaxEngineConfig(fmt=MRPC_FORMAT, exp_rows=256)
        unit = ExponentialUnit(config)
        result = unit.process_batch(np.array([[0, 300, 400]]))
        assert result.exponentials[0, 0] == pytest.approx(1.0)
        assert result.exponentials[0, 1] == 0.0
        assert result.misses[0] == 2

    def test_denominator_equals_sum_of_exponentials(self, rng):
        unit = ExponentialUnit(SoftmaxEngineConfig(fmt=CNEWS_FORMAT))
        codes = rng.integers(0, 40, size=(1, 64))
        result = unit.process_batch(codes)
        assert result.denominators[0] == pytest.approx(result.exponentials.sum())

    def test_histogram_counts_match_occurrences(self):
        unit = ExponentialUnit(SoftmaxEngineConfig(fmt=CNEWS_FORMAT))
        codes = np.array([[0, 0, 1, 3, 3, 3]])
        histogram = unit.process_batch(codes).histograms[0]
        assert histogram[0] == 2
        assert histogram[1] == 1
        assert histogram[3] == 3

    def test_lut_zero_levels_do_not_need_counters(self):
        unit = ExponentialUnit(SoftmaxEngineConfig(fmt=CNEWS_FORMAT))
        # e^{-d} rounds to zero well before 256 levels at m = 4
        assert unit.counters.num_counters < 64
        # a code in the zero region contributes nothing to the denominator
        result = unit.process_batch(np.array([[0, 100]]))
        assert result.denominators[0] == pytest.approx(1.0)

    def test_noise_perturbs_outputs(self, rng):
        codes = rng.integers(0, 14, size=(1, 32))
        ideal = ExponentialUnit(SoftmaxEngineConfig(fmt=CNEWS_FORMAT)).process_batch(codes)
        noisy_cfg = SoftmaxEngineConfig(
            fmt=CNEWS_FORMAT, noise=NoiseConfig(read_noise_sigma=0.05, seed=1)
        )
        noisy = ExponentialUnit(noisy_cfg).process_batch(codes)
        assert not np.allclose(ideal.exponentials, noisy.exponentials)

    def test_invalid_codes(self):
        unit = ExponentialUnit()
        with pytest.raises(ValueError):
            unit.process_batch(np.array([[-1]]))
        with pytest.raises(ValueError):
            unit.process_batch(np.empty((1, 0), dtype=np.int64))
        with pytest.raises(ValueError):
            unit.process_batch(np.array([0, 1]))  # 1-D

    def test_costs(self):
        unit = ExponentialUnit()
        assert unit.area_um2() > 0
        assert unit.row_energy_j(128) > unit.row_energy_j(64)
        assert unit.row_latency_s(128) > unit.row_latency_s(64)
        assert unit.summation_latency_s() > 0
        assert unit.power_w() > 0


class TestSparseReadNoise:
    """Read noise on the unit's readouts: exact in law, zero readouts draw nothing."""

    # rows mixing nonzero levels, levels whose LUT entry rounds to zero and
    # CAM misses (codes beyond the stored range)
    CODES = np.array(
        [[0, 3, 90, 7], [0, 0, 200, 500], [1, 40, 2, 0], [0, 255, 60, 13]]
    )

    @staticmethod
    def unit(sigma: float = 0.0, seed: int = 0) -> ExponentialUnit:
        noise = NoiseConfig(read_noise_sigma=sigma, seed=seed)
        return ExponentialUnit(SoftmaxEngineConfig(fmt=CNEWS_FORMAT, noise=noise))

    @pytest.mark.parametrize("sigma", [0.01, 0.03])
    def test_moments_match_the_dense_per_element_reference(self, sigma):
        """Per element, ``x (1 + eps)`` with ``eps ~ N(0, sigma^2)``: mean ``x``,
        variance ``(x sigma)^2``, independent of the other elements."""
        repeats = 12_000
        clean = self.unit().process_batch(self.CODES)
        result = self.unit(sigma, seed=3).process_batch(np.tile(self.CODES, (repeats, 1)))
        readouts = result.exponentials.reshape(repeats, -1)
        denominators = result.denominators.reshape(repeats, -1)
        values = np.concatenate([clean.exponentials.ravel(), clean.denominators])
        samples = np.concatenate([readouts, denominators], axis=1)

        live = values != 0.0
        assert np.all(samples[:, ~live] == 0.0)
        x = values[live]
        mean_z = (samples[:, live].mean(axis=0) - x) / (x * sigma / np.sqrt(repeats))
        variance = samples[:, live].var(axis=0, ddof=1)
        var_z = (variance - (x * sigma) ** 2) / ((x * sigma) ** 2 * np.sqrt(2 / (repeats - 1)))
        assert np.all(np.abs(mean_z) <= 5), mean_z
        assert np.all(np.abs(var_z) <= 5), var_z
        # two nonzero readouts of one row are independent
        first, second = np.flatnonzero(clean.exponentials[0])[:2]
        correlation = np.corrcoef(readouts[:, first], readouts[:, second])[0, 1]
        assert abs(correlation) * np.sqrt(repeats) <= 5

    def test_block_draws_one_deviate_per_nonzero_readout_then_per_row(self):
        sigma, seed = 0.03, 5
        clean = self.unit().process_batch(self.CODES)
        unit = self.unit(sigma, seed)
        result = unit.process_batch(self.CODES)

        live = clean.exponentials != 0.0
        nonzero, rows = int(live.sum()), self.CODES.shape[0]
        assert nonzero < live.size  # the block has zero readouts to skip
        deviates = np.random.default_rng(seed).normal(0.0, sigma, size=nonzero + rows + 3)
        expected = np.zeros_like(clean.exponentials)
        expected[live] = clean.exponentials[live] * (1.0 + deviates[:nonzero])
        np.testing.assert_array_equal(result.exponentials, expected)
        np.testing.assert_array_equal(
            result.denominators,
            clean.denominators * (1.0 + deviates[nonzero : nonzero + rows]),
        )
        # and no more: the stream resumes right after the block's deviates
        np.testing.assert_array_equal(unit.noise.draw_read_deviates(3), deviates[-3:])


class TestCounterBank:
    def test_saturation_value(self):
        assert CounterBank(num_counters=2, bits=2).max_count == 3
        assert CounterBank(num_counters=2, bits=10).max_count == 1023

    def test_invalid_configuration(self):
        with pytest.raises(ValueError):
            CounterBank(num_counters=0, bits=8)
        with pytest.raises(ValueError):
            CounterBank(num_counters=4, bits=0)

    def test_costs(self):
        small = CounterBank(4, 8)
        large = CounterBank(64, 8)
        assert large.area_um2() > small.area_um2()
        assert small.increment_energy_j() > 0
        assert large.power_w() > small.power_w()


class TestDividerUnit:
    def test_divide_matches_numpy(self, rng):
        divider = DividerUnit(bits=16)
        numerators = rng.uniform(0, 1, size=(1, 16))
        np.testing.assert_allclose(
            divider.divide_batch(numerators, np.array([4.0])), numerators / 4.0
        )

    def test_zero_denominator_gives_uniform(self):
        divider = DividerUnit()
        out = divider.divide_batch(np.array([[1.0, 2.0, 3.0, 4.0]]), np.array([0.0]))
        np.testing.assert_allclose(out, 0.25)

    def test_quotient_truncation(self):
        divider = DividerUnit(quotient_frac_bits=2)
        out = divider.divide_batch(np.array([[1.0]]), np.array([3.0]))
        assert out[0, 0] == pytest.approx(0.25)  # floor(0.333 * 4) / 4

    def test_costs(self):
        divider = DividerUnit(bits=16)
        assert divider.divide_latency_s() == pytest.approx(16e-9)
        assert divider.area_um2() > 0
        assert divider.divide_energy_j() > 0

    def test_invalid_configuration(self):
        with pytest.raises(ValueError):
            DividerUnit(bits=2)
        with pytest.raises(ValueError):
            DividerUnit(quotient_frac_bits=-1)
