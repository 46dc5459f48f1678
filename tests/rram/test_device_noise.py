"""Tests for repro.rram.device and repro.rram.noise."""

from __future__ import annotations

import numpy as np
import pytest

from repro.rram.device import RRAMDevice, RRAMDeviceConfig
from repro.rram.noise import IDEAL_NOISE, TYPICAL_NOISE, WORST_CASE_NOISE, NoiseConfig, NoiseModel


class TestDeviceConfig:
    def test_defaults_are_consistent(self):
        cfg = RRAMDeviceConfig()
        assert cfg.g_max_s == pytest.approx(1.0 / cfg.r_on_ohm)
        assert cfg.g_min_s == pytest.approx(1.0 / cfg.r_off_ohm)
        assert cfg.r_off_ohm / cfg.r_on_ohm == pytest.approx(100.0)
        assert cfg.num_levels == 4

    def test_invalid_resistances(self):
        with pytest.raises(ValueError):
            RRAMDeviceConfig(r_on_ohm=1e7, r_off_ohm=1e5)
        with pytest.raises(ValueError):
            RRAMDeviceConfig(r_on_ohm=-1)

    def test_invalid_bits_per_cell(self):
        with pytest.raises(ValueError):
            RRAMDeviceConfig(bits_per_cell=0)
        with pytest.raises(ValueError):
            RRAMDeviceConfig(bits_per_cell=7)


class TestDevice:
    def test_conductance_levels_span_window(self):
        device = RRAMDevice()
        levels = device.level_to_conductance(np.arange(device.config.num_levels))
        assert levels[0] == pytest.approx(device.config.g_min_s)
        assert levels[-1] == pytest.approx(device.config.g_max_s)
        assert np.all(np.diff(levels) > 0)

    def test_level_conversion_round_trip(self):
        device = RRAMDevice(RRAMDeviceConfig(bits_per_cell=3))
        levels = np.arange(device.config.num_levels)
        conductances = device.level_to_conductance(levels)
        recovered = device.conductance_to_level(conductances)
        assert np.array_equal(recovered, levels)

    def test_level_out_of_range_raises(self):
        device = RRAMDevice()
        with pytest.raises(ValueError):
            device.level_to_conductance(device.config.num_levels)

    def test_read_energy_scales_with_conductance(self):
        device = RRAMDevice()
        low = float(device.read_energy_j(device.config.g_min_s))
        high = float(device.read_energy_j(device.config.g_max_s))
        assert high > low > 0

    def test_write_costs_scale_with_pulses(self):
        device = RRAMDevice()
        assert device.write_energy_j(4) == pytest.approx(4 * device.write_energy_j(1))
        assert device.write_latency_s(4) == pytest.approx(4 * device.write_latency_s(1))
        with pytest.raises(ValueError):
            device.write_energy_j(0)


class TestNoiseConfig:
    def test_presets(self):
        assert IDEAL_NOISE.is_ideal
        assert not TYPICAL_NOISE.is_ideal
        assert WORST_CASE_NOISE.programming_sigma > TYPICAL_NOISE.programming_sigma

    def test_invalid_fractions(self):
        with pytest.raises(ValueError):
            NoiseConfig(stuck_on_fraction=0.7, stuck_off_fraction=0.6)
        with pytest.raises(ValueError):
            NoiseConfig(read_noise_sigma=-0.1)


class TestNoiseModel:
    def test_ideal_model_is_identity(self):
        model = NoiseModel(IDEAL_NOISE)
        g = np.linspace(1e-7, 1e-5, 50)
        np.testing.assert_allclose(model.apply_read(g), g)
        np.testing.assert_allclose(model.apply_programming(g, 1e-7, 1e-5), g)
        np.testing.assert_allclose(model.perturb_current(g), g)

    def test_programming_variation_is_bounded_and_unbiased(self):
        model = NoiseModel(NoiseConfig(programming_sigma=0.05, seed=3))
        g = np.full(20000, 5e-6)
        out = model.apply_programming(g, 1e-7, 1e-5)
        assert np.all(out >= 1e-7) and np.all(out <= 1e-5)
        assert np.mean(out) == pytest.approx(5e-6, rel=0.02)
        assert np.std(out) > 0

    def test_stuck_cells_fraction(self):
        model = NoiseModel(NoiseConfig(stuck_on_fraction=0.1, stuck_off_fraction=0.1, seed=5))
        g = np.full(50000, 5e-6)
        out = model.apply_programming(g, 1e-7, 1e-5)
        stuck_on = np.mean(out == 1e-5)
        stuck_off = np.mean(out == 1e-7)
        assert stuck_on == pytest.approx(0.1, abs=0.01)
        assert stuck_off == pytest.approx(0.1, abs=0.01)

    def test_read_noise_magnitude(self):
        model = NoiseModel(NoiseConfig(read_noise_sigma=0.02, seed=9))
        g = np.full(20000, 1e-6)
        out = model.apply_read(g)
        assert np.std(out / g - 1.0) == pytest.approx(0.02, rel=0.1)

    def test_perturb_current_draws_only_for_nonzero_currents_in_c_order(self):
        sigma, seed = 0.02, 4
        model = NoiseModel(NoiseConfig(read_noise_sigma=sigma, seed=seed))
        currents = np.array([[0.0, 2e-6, 0.0], [1e-6, 0.0, 3e-6]]).T  # a Fortran-ordered view
        out = model.perturb_current(currents)
        live = currents != 0.0
        deviates = np.random.default_rng(seed).normal(0.0, sigma, size=int(live.sum()))
        expected = np.zeros_like(currents)
        expected[live] = currents[live] * (1.0 + deviates)
        np.testing.assert_array_equal(out, expected)
        assert np.all(out[~live] == 0.0)

    def test_seed_reproducibility(self):
        config = NoiseConfig(read_noise_sigma=0.05, seed=0)
        model_a = NoiseModel(config)
        model_b = NoiseModel(config)
        g = np.ones(100) * 1e-6
        np.testing.assert_allclose(model_a.apply_read(g), model_b.apply_read(g))
