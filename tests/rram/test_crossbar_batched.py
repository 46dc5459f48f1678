"""Bit-identity tests for the batched crossbar VMM backend.

`AnalogCrossbar.matvec_batch` must equal a loop of per-vector `matvec`
calls *exactly* — same outputs, same access counters, same RNG stream
consumption — under every configuration: differential and single-ended
arrays, seeded read noise, programming noise, IR drop and ADC saturation.
Two freshly constructed crossbars with the same config are compared so both
paths see identical programming and identical noise streams.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.rram.crossbar import AnalogCrossbar, CrossbarAccessStats, CrossbarConfig
from repro.rram.device import RRAMDeviceConfig
from repro.rram.noise import NoiseConfig


def build(
    rows=16,
    cols=8,
    adc_bits=6,
    input_bits=8,
    differential=False,
    noise=None,
    bits_per_cell=3,
    wire_resistance_ohm=0.0,
    stats=None,
):
    config = CrossbarConfig(
        rows=rows,
        cols=cols,
        adc_bits=adc_bits,
        input_bits=input_bits,
        differential=differential,
        noise=noise or NoiseConfig(),
        device=RRAMDeviceConfig(bits_per_cell=bits_per_cell),
        wire_resistance_ohm=wire_resistance_ohm,
    )
    return AnalogCrossbar(config, stats=stats)


def assert_batch_matches_loop(make_crossbar, weights, block, quantize_output=True):
    """Program two identical crossbars; compare batched vs looped results."""
    batched_xb = make_crossbar()
    looped_xb = make_crossbar()
    batched_xb.program(weights)
    looped_xb.program(weights)
    batched = batched_xb.matvec_batch(block, quantize_output=quantize_output)
    looped = np.stack(
        [looped_xb.matvec(row, quantize_output=quantize_output) for row in block]
    )
    np.testing.assert_array_equal(batched, looped)
    assert batched_xb.stats == looped_xb.stats
    return batched


class TestBitIdentity:
    def setup_method(self):
        rng = np.random.default_rng(77)
        self.pos_weights = rng.uniform(0.1, 1.0, size=(16, 8))
        self.signed_weights = rng.normal(size=(16, 8))
        self.block = rng.uniform(0.0, 1.0, size=(9, 16))

    def test_ideal_single_ended(self):
        assert_batch_matches_loop(build, self.pos_weights, self.block)

    def test_ideal_differential(self):
        assert_batch_matches_loop(
            lambda: build(differential=True), self.signed_weights, self.block
        )

    def test_unquantized_output(self):
        assert_batch_matches_loop(
            build, self.pos_weights, self.block, quantize_output=False
        )

    @pytest.mark.parametrize("differential", [False, True])
    def test_seeded_read_noise(self, differential):
        noise = NoiseConfig(read_noise_sigma=0.05, seed=3)
        weights = self.signed_weights if differential else self.pos_weights
        assert_batch_matches_loop(
            lambda: build(differential=differential, noise=noise), weights, self.block
        )

    def test_programming_noise_and_stuck_cells(self):
        noise = NoiseConfig(
            programming_sigma=0.03,
            stuck_on_fraction=0.02,
            stuck_off_fraction=0.02,
            seed=11,
        )
        assert_batch_matches_loop(lambda: build(noise=noise), self.pos_weights, self.block)

    def test_all_noise_mechanisms_differential(self):
        noise = NoiseConfig(programming_sigma=0.02, read_noise_sigma=0.03, seed=5)
        assert_batch_matches_loop(
            lambda: build(differential=True, noise=noise), self.signed_weights, self.block
        )

    def test_ir_drop(self):
        assert_batch_matches_loop(
            lambda: build(wire_resistance_ohm=5.0), self.pos_weights, self.block
        )

    def test_ir_drop_with_read_noise(self):
        noise = NoiseConfig(read_noise_sigma=0.02, seed=9)
        assert_batch_matches_loop(
            lambda: build(wire_resistance_ohm=5.0, noise=noise),
            self.pos_weights,
            self.block,
        )

    def test_adc_saturation(self):
        # 2-bit ADC with large inputs drives the converter deep into clipping
        block = np.random.default_rng(4).uniform(0.0, 50.0, size=(6, 16))
        batched = assert_batch_matches_loop(
            lambda: build(adc_bits=2), self.pos_weights, block
        )
        assert np.all(np.isfinite(batched))

    def test_noisy_chunking_preserves_stream_order(self, monkeypatch):
        """A chunked noisy block equals the same block processed whole."""
        import repro.rram.crossbar as crossbar_mod

        noise = NoiseConfig(read_noise_sigma=0.05, seed=13)
        whole_xb = build(noise=noise)
        whole_xb.program(self.pos_weights)
        whole = whole_xb.matvec_batch(self.block)

        # force chunks of at most ~2 vectors
        per_vector = whole_xb.config.input_cycles * whole_xb._deviates_per_cycle()
        monkeypatch.setattr(crossbar_mod, "_CHUNK_DOUBLES", 2 * per_vector)
        chunked_xb = build(noise=noise)
        chunked_xb.program(self.pos_weights)
        chunked = chunked_xb.matvec_batch(self.block)
        np.testing.assert_array_equal(whole, chunked)

    def test_exact_path_chunking_is_transparent(self, monkeypatch):
        """The ideal-device path also chunks to the scratch budget, unchanged."""
        import repro.rram.crossbar as crossbar_mod

        whole_xb = build()
        whole_xb.program(self.pos_weights)
        whole = whole_xb.matvec_batch(self.block)

        monkeypatch.setattr(crossbar_mod, "_CHUNK_DOUBLES", 1)  # one row per chunk
        chunked_xb = build()
        chunked_xb.program(self.pos_weights)
        chunked = chunked_xb.matvec_batch(self.block)
        np.testing.assert_array_equal(whole, chunked)
        assert chunked_xb.stats == whole_xb.stats


class TestBatchSemantics:
    def test_accuracy_tracks_ideal(self):
        rng = np.random.default_rng(0)
        crossbar = build(rows=32, cols=16, adc_bits=12, bits_per_cell=5)
        weights = rng.uniform(0.1, 1.0, size=(32, 16))
        crossbar.program(weights)
        block = rng.uniform(0.0, 1.0, size=(12, 32))
        out = crossbar.matvec_batch(block)
        ideal = block @ weights
        assert np.max(np.abs(out - ideal)) / np.max(np.abs(ideal)) < 0.05

    def test_empty_batch(self):
        crossbar = build()
        crossbar.program(np.abs(np.random.default_rng(1).normal(size=(16, 8))))
        out = crossbar.matvec_batch(np.zeros((0, 16)))
        assert out.shape == (0, 8)
        assert crossbar.stats.vmm_ops == 0

    def test_rejects_wrong_width(self):
        crossbar = build()
        crossbar.program(np.abs(np.random.default_rng(1).normal(size=(16, 8))))
        with pytest.raises(ValueError):
            crossbar.matvec_batch(np.zeros((3, 7)))

    def test_rejects_negative_inputs(self):
        crossbar = build()
        crossbar.program(np.abs(np.random.default_rng(1).normal(size=(16, 8))))
        block = np.zeros((3, 16))
        block[1, 4] = -0.5
        with pytest.raises(ValueError):
            crossbar.matvec_batch(block)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -0.5])
    def test_rejects_non_finite_and_negative_inputs_naming_them(self, value):
        """NaN used to slip past the ``block < 0`` check."""
        crossbar = build()
        crossbar.program(np.abs(np.random.default_rng(1).normal(size=(16, 8))))
        block = np.ones((3, 16))
        block[2, 7] = value
        with pytest.raises(ValueError, match=rf"got {value} at row 2, column 7"):
            crossbar.matvec_batch(block)
        assert crossbar.stats.vmm_ops == 0

    def test_requires_programming(self):
        with pytest.raises(RuntimeError):
            build().matvec_batch(np.zeros((2, 16)))

    def test_stats_scale_with_batch(self):
        crossbar = build(input_bits=4)
        crossbar.program(np.abs(np.random.default_rng(1).normal(size=(16, 8))))
        crossbar.matvec_batch(np.random.default_rng(2).uniform(size=(5, 16)))
        cycles = crossbar.config.input_cycles
        assert crossbar.stats.vmm_ops == 5
        assert crossbar.stats.array_activations == 5 * cycles
        assert crossbar.stats.dac_conversions == 5 * 16 * cycles
        assert crossbar.stats.adc_conversions == 5 * 8 * cycles

    def test_shared_stats_object(self):
        shared = CrossbarAccessStats()
        a = build(stats=shared)
        b = build(stats=shared)
        weights = np.abs(np.random.default_rng(1).normal(size=(16, 8)))
        a.program(weights)
        b.program(weights)
        assert shared.programming_pulses == 2 * 16 * 8
        a.matvec_batch(np.random.default_rng(2).uniform(size=(3, 16)))
        assert shared.vmm_ops == 3
        assert a.stats is shared and b.stats is shared


class TestPerCellReadNoise:
    """Above the clip bound every cell draws its own deviate; still bit-identical."""

    def setup_method(self):
        rng = np.random.default_rng(78)
        self.pos_weights = rng.uniform(0.1, 1.0, size=(16, 8))
        self.signed_weights = rng.normal(size=(16, 8))
        self.block = rng.uniform(0.0, 1.0, size=(9, 16))

    @pytest.mark.parametrize("differential", [False, True])
    @pytest.mark.parametrize("wire_resistance_ohm", [0.0, 5.0])
    def test_matches_loop(self, differential, wire_resistance_ohm):
        noise = NoiseConfig(read_noise_sigma=0.2, seed=21)
        weights = self.signed_weights if differential else self.pos_weights
        assert_batch_matches_loop(
            lambda: build(
                differential=differential,
                noise=noise,
                wire_resistance_ohm=wire_resistance_ohm,
            ),
            weights,
            self.block,
        )

    def test_chunking_preserves_stream_order(self, monkeypatch):
        import repro.rram.crossbar as crossbar_mod

        noise = NoiseConfig(read_noise_sigma=0.2, seed=22)
        whole_xb = build(differential=True, noise=noise)
        whole_xb.program(self.signed_weights)
        whole = whole_xb.matvec_batch(self.block)

        per_vector = whole_xb.config.input_cycles * whole_xb._deviates_per_cycle()
        monkeypatch.setattr(crossbar_mod, "_CHUNK_DOUBLES", 2 * per_vector)
        chunked_xb = build(differential=True, noise=noise)
        chunked_xb.program(self.signed_weights)
        np.testing.assert_array_equal(whole, chunked_xb.matvec_batch(self.block))


class TestPerColumnReadNoise:
    """One deviate per column gives every column current the per-cell law.

    The per-cell path is the reference: it perturbs and clips every cell on
    its own, which is exact at any ``sigma``.  Forcing it (by lowering the
    clip-probability bound below any probability) and drawing the same input
    vector many times, each column's output mean and variance must agree
    between the two paths within a z-score of 5.
    """

    DRAWS = 10_000
    SIGMA = 0.03
    Z_BOUND = 5.0

    def _draws(self, weights, differential, wire_resistance_ohm, vector, seed):
        crossbar = build(
            input_bits=4,
            differential=differential,
            wire_resistance_ohm=wire_resistance_ohm,
            noise=NoiseConfig(read_noise_sigma=self.SIGMA, seed=seed),
        )
        crossbar.program(weights)
        return crossbar.matvec_batch(np.tile(vector, (self.DRAWS, 1)), quantize_output=False)

    @staticmethod
    def _moments(samples):
        mean = samples.mean(axis=0)
        var = samples.var(axis=0, ddof=1)
        fourth = ((samples - mean) ** 4).mean(axis=0)
        n = samples.shape[0]
        return mean, var, var / n, (fourth - var**2) / n

    @pytest.mark.parametrize("differential", [False, True], ids=["single", "differential"])
    @pytest.mark.parametrize("wire_resistance_ohm", [0.0, 5.0], ids=["no_ir", "ir_drop"])
    def test_column_moments_match_per_cell_path(
        self, monkeypatch, differential, wire_resistance_ohm
    ):
        import repro.rram.crossbar as crossbar_mod

        rng = np.random.default_rng(31)
        weights = (
            rng.normal(size=(16, 8)) if differential else rng.uniform(0.1, 1.0, size=(16, 8))
        )
        vector = rng.uniform(0.0, 1.0, size=16)
        args = (weights, differential, wire_resistance_ohm, vector)

        per_column = self._draws(*args, seed=41)
        monkeypatch.setattr(crossbar_mod, "_CLIP_PROBABILITY_BOUND", -1.0)
        per_cell = self._draws(*args, seed=42)

        mean_c, var_c, se2_mean_c, se2_var_c = self._moments(per_column)
        mean_r, var_r, se2_mean_r, se2_var_r = self._moments(per_cell)
        # the noise must be visible, or the comparison has no power
        assert np.all(var_r > 0)
        z_mean = (mean_c - mean_r) / np.sqrt(se2_mean_c + se2_mean_r)
        z_var = (var_c - var_r) / np.sqrt(se2_var_c + se2_var_r)
        assert np.max(np.abs(z_mean)) <= self.Z_BOUND, z_mean
        assert np.max(np.abs(z_var)) <= self.Z_BOUND, z_var

    @pytest.mark.parametrize("differential", [False, True], ids=["single", "differential"])
    @pytest.mark.parametrize(
        "sigma, per_column",
        [(0.03, True), (0.14, True), (0.143, False), (0.2, False)],
    )
    def test_path_choice_and_stream_consumption(self, differential, sigma, per_column):
        """``sigma`` alone picks the path; it fixes how far the stream advances.

        The clip probability ``Phi(-1/sigma)`` crosses 1e-12 at ``sigma``
        ~0.142.  Below, a vector consumes ``2 * cols`` deviates per cycle;
        above, one per cell (both columns of a differential pair) plus
        ``cols``.
        """
        rows, cols, vectors = 16, 8, 5
        noise = NoiseConfig(read_noise_sigma=sigma, seed=17)
        crossbar = build(rows=rows, cols=cols, differential=differential, noise=noise)
        weights = np.random.default_rng(5).uniform(0.1, 1.0, size=(rows, cols))
        crossbar.program(weights)
        crossbar.matvec_batch(np.random.default_rng(6).uniform(size=(vectors, rows)))

        if per_column:
            per_cycle = 2 * cols
        else:
            per_cycle = rows * cols * (2 if differential else 1) + cols
        assert crossbar._deviates_per_cycle() == per_cycle
        reference = np.random.default_rng(17)
        reference.normal(0.0, sigma, size=vectors * crossbar.config.input_cycles * per_cycle)
        np.testing.assert_array_equal(
            crossbar.noise.draw_read_deviates(4), reference.normal(0.0, sigma, size=4)
        )
