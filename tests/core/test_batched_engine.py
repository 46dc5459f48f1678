"""Tests for the batched softmax engine, its only functional datapath.

The contract under test: with ideal devices the engine is **bit-identical**
(``np.array_equal``) to the functional
:class:`~repro.nn.softmax_models.FixedPointSoftmax` model across all three
dataset formats, including CAM-miss rows, and to closed forms for counter
saturation and the all-zero-denominator uniform fallback; sampled CAM/SUB
search errors follow their closed-form law — while the hot path never
mutates shared state.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.access_stats import AccessStats
from repro.core.config import SoftmaxEngineConfig
from repro.core.divider import DividerUnit
from repro.core.exponent import ExponentialUnit
from repro.core.softmax_engine import RRAMSoftmaxEngine
from repro.nn.softmax_models import FixedPointSoftmax
from repro.rram.cam import CAMConfig, CAMCrossbar
from repro.rram.noise import NoiseConfig
from repro.utils.fixed_point import CNEWS_FORMAT, COLA_FORMAT, MRPC_FORMAT

ALL_FORMATS = {"CNEWS": CNEWS_FORMAT, "MRPC": MRPC_FORMAT, "CoLA": COLA_FORMAT}


def _difference_codes(fmt, block: np.ndarray) -> np.ndarray:
    """Reference ``x_max - x_i`` codes: clip, round, subtract the row max."""
    codes = np.rint(np.clip(block, fmt.signed_min_value, fmt.signed_max_value) / fmt.resolution)
    return (codes.max(axis=-1, keepdims=True) - codes).astype(np.int64)


class TestBitIdentity:
    """Batched engine == functional model (or closed form), bit for bit."""

    @pytest.mark.parametrize("name", sorted(ALL_FORMATS))
    def test_identity_across_dataset_formats(self, name, rng):
        fmt = ALL_FORMATS[name]
        engine = RRAMSoftmaxEngine(SoftmaxEngineConfig(fmt=fmt))
        # spread beyond the representable range: exercises clipping and, for
        # MRPC (512 levels > 256 stored), CAM-miss rows
        block = rng.uniform(-80.0, 80.0, size=(48, 96))
        batched = engine.softmax_batch(block)
        np.testing.assert_array_equal(batched, FixedPointSoftmax(fmt)(block))

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        num_rows=st.integers(min_value=1, max_value=24),
        seq_len=st.integers(min_value=1, max_value=40),
        name=st.sampled_from(sorted(ALL_FORMATS)),
    )
    @settings(max_examples=25, deadline=None)
    def test_identity_property(self, seed, num_rows, seq_len, name):
        fmt = ALL_FORMATS[name]
        engine = RRAMSoftmaxEngine(SoftmaxEngineConfig(fmt=fmt))
        rng = np.random.default_rng(seed)
        block = rng.uniform(-90.0, 90.0, size=(num_rows, seq_len))
        batched = engine.softmax_batch(block)
        np.testing.assert_array_equal(batched, FixedPointSoftmax(fmt)(block))

    def test_cam_miss_rows_are_exact_zero(self, rng):
        # MRPC: 512 representable levels but only 256 stored -> misses exist
        engine = RRAMSoftmaxEngine(SoftmaxEngineConfig(fmt=MRPC_FORMAT))
        block = np.array([[31.0, -32.0, -31.875, 30.0]])  # diff codes > 255
        batched = engine.softmax_batch(block)
        np.testing.assert_array_equal(batched, FixedPointSoftmax(MRPC_FORMAT)(block))
        assert engine.access_stats.cam_misses > 0
        assert batched[0, 1] == 0.0  # missed element reads an exact zero

    def test_identity_under_counter_saturation(self, rng):
        # 4-bit counters saturate at 15; 48 scores on three levels overflow
        # them, and the denominator is the closed form min(count, 15) @ LUT
        config = SoftmaxEngineConfig(fmt=CNEWS_FORMAT, counter_bits=4)
        engine = RRAMSoftmaxEngine(config)
        block = rng.integers(-2, 1, size=(6, 48)) * CNEWS_FORMAT.resolution
        block[:, 0] = 1.0  # and one row max above them
        unit = engine.exponential
        active = unit.active_levels
        lut = unit.lut_values
        diffs = _difference_codes(CNEWS_FORMAT, block)
        counts = np.stack(
            [np.bincount(row[row < active], minlength=active) for row in diffs]
        )
        assert counts.max() > 15  # the case really saturates
        denominators = np.minimum(counts, 15) @ lut[:active]
        exponentials = np.where(diffs < lut.size, lut[np.minimum(diffs, lut.size - 1)], 0.0)
        expected = exponentials / denominators[:, None]
        batched = engine.softmax_batch(block)
        np.testing.assert_array_equal(batched, expected)
        assert not np.array_equal(batched, FixedPointSoftmax(CNEWS_FORMAT)(block))

    def test_softmax_dispatches_to_batch_for_any_rank(self, rng):
        engine = RRAMSoftmaxEngine(SoftmaxEngineConfig(fmt=CNEWS_FORMAT))
        scores = rng.normal(0, 8, size=(2, 3, 5, 16))
        probs = engine.softmax(scores)
        np.testing.assert_array_equal(probs, FixedPointSoftmax(CNEWS_FORMAT)(scores))
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-9)

    def test_empty_batch(self):
        engine = RRAMSoftmaxEngine(SoftmaxEngineConfig(fmt=CNEWS_FORMAT))
        out = engine.softmax_batch(np.empty((0, 7)))
        assert out.shape == (0, 7)

    def test_invalid_batches_rejected(self):
        engine = RRAMSoftmaxEngine(SoftmaxEngineConfig(fmt=CNEWS_FORMAT))
        with pytest.raises(ValueError):
            engine.softmax_batch(np.zeros(4))  # 1D
        with pytest.raises(ValueError):
            engine.softmax_batch(np.zeros((3, 0)))  # empty rows


class TestNaNScores:
    """NaN has no fixed-point code: both models refuse it, naming it."""

    def test_engine_rejects_nan_before_quantising(self):
        engine = RRAMSoftmaxEngine(SoftmaxEngineConfig(fmt=CNEWS_FORMAT))
        block = np.array([[1.0, 2.0, 3.0], [1.0, np.nan, 2.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no cast warning on the way
            with pytest.raises(ValueError, match=r"NaN \(first at row 1, column 1\)"):
                engine.softmax_batch(block)
            with pytest.raises(ValueError, match="NaN"):
                engine.softmax(block[None])
            with pytest.raises(ValueError, match="NaN"):
                engine.softmax_row(block[1])
        assert engine.rows_processed == 0

    def test_fixed_point_model_rejects_nan(self):
        with pytest.raises(ValueError, match=r"NaN \(first at index \(0, 1\)\)"):
            FixedPointSoftmax(CNEWS_FORMAT)(np.array([[1.0, np.nan, 2.0]]))

    @pytest.mark.parametrize("name", sorted(ALL_FORMATS))
    def test_infinities_saturate_like_the_reference(self, name):
        fmt = ALL_FORMATS[name]
        engine = RRAMSoftmaxEngine(SoftmaxEngineConfig(fmt=fmt))
        block = np.array([[np.inf, 0.0, -np.inf], [-np.inf, -np.inf, 3.0], [np.inf, np.inf, 1.0]])
        np.testing.assert_array_equal(engine.softmax_batch(block), FixedPointSoftmax(fmt)(block))


class TestUniformFallback:
    """The all-zero-denominator saturation matches its closed form exactly."""

    def test_all_miss_rows_give_uniform(self):
        # fed directly with out-of-range codes, every exponential is zero and
        # the denominator is zero -> the divider saturates to uniform
        unit = ExponentialUnit(SoftmaxEngineConfig(fmt=MRPC_FORMAT))
        divider = DividerUnit()
        codes = np.array([[300, 400, 500], [0, 1, 2]])
        result = unit.process_batch(codes)
        assert result.denominators[0] == 0.0
        probs = divider.divide_batch(result.exponentials, result.denominators)
        np.testing.assert_array_equal(probs[0], np.full(3, 1.0 / 3.0))
        np.testing.assert_array_equal(
            probs[1], result.exponentials[1] / result.denominators[1]
        )

    def test_divide_batch_matches_divide_rows(self, rng):
        # closed form per row: floor(x / d * 2^6) / 2^6, or an untruncated
        # uniform row when d <= 0
        divider = DividerUnit(quotient_frac_bits=6)
        block = rng.uniform(0, 1, size=(8, 16))
        denoms = rng.uniform(0.5, 4.0, size=8)
        denoms[2] = 0.0
        denoms[5] = -1.0
        batched = divider.divide_batch(block, denoms)
        positive = denoms > 0
        expected = np.full_like(block, 1.0 / 16)
        expected[positive] = np.floor(block[positive] / denoms[positive, None] * 64) / 64
        np.testing.assert_array_equal(batched, expected)

    def test_divide_batch_validates_shapes(self):
        divider = DividerUnit()
        with pytest.raises(ValueError):
            divider.divide_batch(np.zeros(4), np.ones(4))
        with pytest.raises(ValueError):
            divider.divide_batch(np.zeros((2, 4)), np.ones(3))
        with pytest.raises(ValueError):
            divider.divide_batch(np.zeros((5, 0)), np.zeros(5))  # empty rows
        assert divider.divide_batch(np.zeros((0, 4)), np.zeros(0)).shape == (0, 4)


class TestBatchedCamSearch:
    """CAMCrossbar.search_max_codes / search_histograms semantics."""

    def test_max_codes_match_looped_searches(self, rng):
        cam = CAMCrossbar(CAMConfig(rows=32, bits=6))
        cam.program_codes(np.arange(20))
        block = rng.integers(0, 40, size=(10, 12))
        fast = cam.search_max_codes(block)
        stored = set(cam.stored_codes.tolist())
        slow = []
        for row in block:
            hits = [int(q) for q in row if int(q) in stored]
            slow.append(max(hits) if hits else -1)
        np.testing.assert_array_equal(fast, np.asarray(slow))

    def test_non_contiguous_storage(self):
        cam = CAMCrossbar(CAMConfig(rows=8, bits=5))
        cam.program_codes(np.array([3, 9, 17]))
        block = np.array([[1, 2, 4], [9, 3, 31], [17, 18, 19]])
        np.testing.assert_array_equal(cam.search_max_codes(block), [-1, 9, 17])
        hist = cam.search_histograms(block, 10)
        assert hist[1, 9] == 1 and hist[1, 3] == 1 and hist[1].sum() == 2
        assert hist[0].sum() == 0  # nothing stored matches row 0

    def test_histograms_match_counterbank_semantics(self, rng):
        # one counter per level with a non-zero LUT entry, saturating
        unit = ExponentialUnit(SoftmaxEngineConfig(fmt=CNEWS_FORMAT, counter_bits=4))
        codes = rng.integers(0, 60, size=(5, 64))
        codes[0, :20] = 0  # 20 matches on level 0 saturate its 4-bit counter
        batched = unit.process_batch(codes).histograms
        active = unit.active_levels
        rows = np.stack(
            [np.bincount(row[row < active], minlength=active) for row in codes]
        )
        np.testing.assert_array_equal(batched, np.minimum(rows, 15))
        assert batched[0, 0] == 15

    def test_histograms_never_count_out_of_capacity_queries(self):
        # regression: with num_codes beyond the code space, a query >= capacity
        # must not clamp onto a stored code and be counted as a match
        cam = CAMCrossbar(CAMConfig(rows=4, bits=3))
        cam.program_codes(np.array([0, 2, 5, 7]))  # capacity 8, code 7 stored
        hist = cam.search_histograms(np.array([[9, 7, 2]]), num_codes=12)
        assert hist[0, 9] == 0
        assert hist[0, 7] == 1 and hist[0, 2] == 1
        np.testing.assert_array_equal(cam.search_max_codes(np.array([[9, 1]])), [-1])

    def test_histograms_refuse_error_injection(self):
        # only the max search samples matchline flips; the exponential unit,
        # the histograms' one caller, builds an error-free CAM
        cam = CAMCrossbar(CAMConfig(rows=8, bits=3, search_error_rate=0.1))
        cam.program_codes(np.arange(8))
        with pytest.raises(RuntimeError):
            cam.search_histograms(np.zeros((1, 4), dtype=np.int64), 8)
        assert cam.search_max_codes(np.zeros((1, 4), dtype=np.int64)).shape == (1,)


class TestSearchErrorWiring:
    """config.cam_search_error_rate reaches the CAM/SUB stage."""

    def test_error_rate_propagates_to_cam_sub(self):
        config = SoftmaxEngineConfig(fmt=CNEWS_FORMAT, cam_search_error_rate=0.05, cam_seed=7)
        engine = RRAMSoftmaxEngine(config)
        assert engine.cam_sub.cam.config.search_error_rate == 0.05
        assert engine.cam_sub.cam.config.seed == 7
        # the exponential unit's CAM stays ideal on the functional path
        assert engine.exponential.cam.config.search_error_rate == 0.0

    def test_engine_samples_search_errors_in_one_batched_call(self, rng, monkeypatch):
        config = SoftmaxEngineConfig(fmt=CNEWS_FORMAT, cam_search_error_rate=0.2, cam_seed=3)
        noisy = RRAMSoftmaxEngine(config)
        ideal = RRAMSoftmaxEngine(SoftmaxEngineConfig(fmt=CNEWS_FORMAT))
        block = rng.uniform(-20, 20, size=(8, 24))
        shapes = []
        batch = noisy.softmax_batch
        monkeypatch.setattr(
            noisy, "softmax_batch", lambda scores: shapes.append(scores.shape) or batch(scores)
        )
        noisy_out = noisy.softmax(block)
        assert shapes == [(8, 24)]  # one block, no per-row loop
        assert noisy_out.shape == block.shape
        assert not np.array_equal(noisy_out, ideal.softmax(block))
        np.testing.assert_allclose(noisy_out.sum(axis=-1), 1.0, atol=1e-12)
        assert noisy.rows_processed == 8

    def test_missed_maximum_clips_differences_at_zero(self, rng):
        # a flip can pick a level below some x_i: the SUB phase outputs the
        # magnitude max(x_max - x_i, 0)
        fmt = CNEWS_FORMAT
        config = SoftmaxEngineConfig(fmt=fmt, cam_search_error_rate=0.5, cam_seed=1)
        cam_sub = RRAMSoftmaxEngine(config).cam_sub
        block = rng.uniform(-30, 30, size=(400, 3))
        block[:, 0] = 100.0  # top level: nothing above it can light up
        result = cam_sub.process_batch(block)
        codes = np.rint(np.clip(block, fmt.signed_min_value, fmt.signed_max_value) / fmt.resolution)
        max_codes = np.rint(result.max_values / fmt.resolution)
        raw = max_codes[:, None] - codes
        assert raw.min() < 0  # some rows really missed their maximum
        np.testing.assert_array_equal(result.difference_codes, np.maximum(raw, 0))

    def test_all_flipped_row_resolves_to_true_maximum(self):
        # regression: with length-1 rows an injected flip can clear every
        # matchline; the controller re-search must recover the true max
        # instead of raising mid-sweep
        config = SoftmaxEngineConfig(fmt=CNEWS_FORMAT, cam_search_error_rate=1e-3, cam_seed=0)
        engine = RRAMSoftmaxEngine(config)
        for value in np.linspace(-20, 20, 200):
            probs = engine.softmax_row(np.array([value]))
            np.testing.assert_array_equal(probs, [1.0])

    def test_invalid_error_rate_rejected(self):
        with pytest.raises(ValueError):
            SoftmaxEngineConfig(cam_search_error_rate=1.5)


class TestSearchErrorLaw:
    """The sampled max search follows the closed form of independent flips.

    Every (query, stored level) match decision flips with probability p.
    After the OR merge, level c stays dark with probability
    ``p^k_c (1 - p)^(n - k_c)`` (``k_c`` of the row's ``n`` queries hold c),
    independently across levels; the highest lit level wins, and an all-dark
    row re-searches to the true maximum.
    """

    LEVELS = 16
    DRAWS = 20_000
    CASES = {
        "p=0.01": (0.01, [0, 2, 3, 5, 8, 9, 11, 12]),
        "p=0.2 tied": (0.2, [3, 3, 3, 7, 7, 10]),
        "p=0.5": (0.5, [1, 4, 4, 6]),
        "p=0.2 length-1": (0.2, [6]),
        "p=0.01 all tied": (0.01, [9, 9, 9, 9, 9]),
    }

    @staticmethod
    def closed_form(row, stored, levels: int, p: float) -> np.ndarray:
        """P(the search returns each code in ``[0, levels)``)."""
        is_stored = np.zeros(levels, dtype=bool)
        is_stored[stored] = True
        n = len(row)
        k = np.bincount(row, minlength=levels) * is_stored
        dark = np.where(is_stored, p**k * (1.0 - p) ** (n - k), 1.0)
        dark_above = np.append(np.cumprod(dark[::-1])[::-1][1:], 1.0)
        law = (1.0 - dark) * dark_above
        law[max(c for c in row if is_stored[c])] += np.prod(dark)
        return law

    @staticmethod
    def max_abs_z(samples: np.ndarray, law: np.ndarray) -> float:
        """Largest |z| over per-code counts, pooling codes expected < 20 times."""
        counts = np.bincount(samples, minlength=law.size)
        assert counts.size == law.size and counts[law == 0].sum() == 0
        draws = samples.size
        sparse = draws * law < 20
        observed = np.append(counts[~sparse], counts[sparse].sum())
        prob = np.append(law[~sparse], law[sparse].sum())
        keep = (prob > 0) & (prob < 1)
        observed, prob = observed[keep], prob[keep]
        z = (observed - draws * prob) / np.sqrt(draws * prob * (1.0 - prob))
        return float(np.abs(z).max()) if z.size else 0.0

    @pytest.mark.parametrize("assume_hits", [True, False])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_sampled_max_matches_closed_form(self, case, assume_hits):
        p, row = self.CASES[case]
        cam = CAMCrossbar(CAMConfig(rows=self.LEVELS, bits=4, search_error_rate=p, seed=17))
        cam.program_codes(np.arange(self.LEVELS - 1, -1, -1))  # descending, as in CAM/SUB
        block = np.tile(np.asarray(row), (self.DRAWS, 1))
        samples = cam.search_max_codes(block, assume_hits=assume_hits)
        law = self.closed_form(row, np.arange(self.LEVELS), self.LEVELS, p)
        assert self.max_abs_z(samples, law) <= 5.0

    def test_non_contiguous_storage_lights_only_stored_levels(self):
        stored = np.array([1, 4, 6, 9, 13])
        cam = CAMCrossbar(CAMConfig(rows=8, bits=4, search_error_rate=0.2, seed=5))
        cam.program_codes(stored)
        row = [4, 4, 13, 2]  # 2 is not stored: it never matches, but can flip on
        samples = cam.search_max_codes(np.tile(row, (self.DRAWS, 1)))
        assert set(np.unique(samples)) <= set(stored.tolist())
        law = self.closed_form(row, stored, 16, 0.2)
        assert self.max_abs_z(samples, law) <= 5.0

    def test_seeded_searches_are_reproducible(self):
        def run():
            config = SoftmaxEngineConfig(fmt=CNEWS_FORMAT, cam_search_error_rate=0.01, cam_seed=4)
            block = np.random.default_rng(2).uniform(-30, 30, size=(50, 64))
            return RRAMSoftmaxEngine(config).softmax(block)

        np.testing.assert_array_equal(run(), run())


class TestHotPathPurity:
    """process_batch leaves no shared state behind (ideal devices)."""

    def test_exponential_unit_is_repeatable(self, rng):
        unit = ExponentialUnit(SoftmaxEngineConfig(fmt=CNEWS_FORMAT))
        codes = rng.integers(0, 50, size=(1, 64))
        first = unit.process_batch(codes)
        unit.process_batch(rng.integers(0, 50, size=(4, 64)))
        second = unit.process_batch(codes)
        np.testing.assert_array_equal(first.exponentials, second.exponentials)
        np.testing.assert_array_equal(first.denominators, second.denominators)
        np.testing.assert_array_equal(first.histograms, second.histograms)

    def test_interleaved_row_and_batch_results_agree(self, rng):
        engine = RRAMSoftmaxEngine(SoftmaxEngineConfig(fmt=CNEWS_FORMAT))
        block = rng.uniform(-30, 30, size=(6, 32))
        interleaved = []
        for i in range(6):
            interleaved.append(engine.softmax_row(block[i]))
            engine.softmax_batch(block)  # must not disturb subsequent rows
        np.testing.assert_array_equal(np.stack(interleaved), engine.softmax_batch(block))


class TestAccessStats:
    def test_block_stats_accumulate(self, rng):
        engine = RRAMSoftmaxEngine(SoftmaxEngineConfig(fmt=CNEWS_FORMAT))
        block = rng.uniform(-30, 30, size=(10, 32))
        engine.softmax_batch(block)
        stats = engine.access_stats
        assert stats.rows == 10
        assert stats.elements == 320
        assert stats.cam_sub_searches == 320
        assert stats.sub_passes == 320
        assert stats.register_writes == 10
        assert stats.vmm_passes == 10
        assert stats.divides == 320
        assert 0 < stats.counter_increments <= 320
        assert stats.lut_reads == 320 - stats.cam_misses

    def test_block_stats_match_closed_form(self, rng):
        # MRPC: 512 levels but 256 stored -> misses; a row's stats are its
        # misses (codes >= stored) and increments (codes < active levels)
        block = rng.uniform(-40, 40, size=(7, 48))
        engine = RRAMSoftmaxEngine(SoftmaxEngineConfig(fmt=MRPC_FORMAT))
        engine.softmax_batch(block)
        diffs = _difference_codes(MRPC_FORMAT, block)
        misses = int(np.count_nonzero(diffs >= engine.exponential.stored_levels))
        assert misses > 0
        assert engine.access_stats == AccessStats.for_block(
            7,
            48,
            lut_reads=7 * 48 - misses,
            counter_increments=int(np.count_nonzero(diffs < engine.exponential.active_levels)),
            cam_misses=misses,
        )
        # one row at a time records the same total
        per_row = RRAMSoftmaxEngine(SoftmaxEngineConfig(fmt=MRPC_FORMAT))
        for row in block:
            per_row.softmax_row(row)
        assert per_row.access_stats == engine.access_stats

    def test_stats_compose(self):
        one = AccessStats.for_block(1, 8)
        ten = AccessStats.for_block(10, 8)
        assert one.scaled(10) == ten
        assert one + one == AccessStats.for_block(2, 8)
        with pytest.raises(ValueError):
            AccessStats(rows=-1)

    def test_costs_derive_from_stats(self):
        engine = RRAMSoftmaxEngine(SoftmaxEngineConfig(fmt=CNEWS_FORMAT))
        stats = engine.stats_for(1, 128)
        assert engine.energy_j_of(stats) == engine.row_energy_j(128)
        assert engine.latency_s_of(stats) == engine.row_latency_s(128)
        ledger = engine.ledger_of(stats)
        assert ledger.total_energy_j == pytest.approx(engine.row_energy_j(128), rel=0.35)
        # a 100-row block costs exactly 100x one row in energy
        assert engine.batch_energy_j(100, 128) == pytest.approx(
            100 * engine.row_energy_j(128)
        )

    def test_live_stats_power_matches_closed_form(self, rng):
        engine = RRAMSoftmaxEngine(SoftmaxEngineConfig(fmt=CNEWS_FORMAT))
        block = rng.uniform(-3, 3, size=(16, 128))  # narrow: no misses
        engine.softmax_batch(block)
        live = engine.access_stats
        assert live.cam_misses == 0
        assert engine.energy_j_of(live) == pytest.approx(
            engine.batch_energy_j(16, 128), rel=0.05
        )


class TestBatchedNoise:
    def test_noise_draws_vectorized_but_statistically_sane(self, rng):
        config = SoftmaxEngineConfig(
            fmt=CNEWS_FORMAT, noise=NoiseConfig(read_noise_sigma=0.05, seed=11)
        )
        noisy = RRAMSoftmaxEngine(config)
        ideal = RRAMSoftmaxEngine(SoftmaxEngineConfig(fmt=CNEWS_FORMAT))
        block = rng.uniform(-20, 20, size=(32, 64))
        noisy_out = noisy.softmax_batch(block)
        ideal_out = ideal.softmax_batch(block)
        assert not np.allclose(noisy_out, ideal_out)
        np.testing.assert_allclose(noisy_out.sum(axis=-1), 1.0, atol=0.25)
        assert np.max(np.abs(noisy_out - ideal_out)) < 0.2
