"""Tests for the CAM crossbar, LUT crossbar and write-verify programming model."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rram.cam import CAMConfig, CAMCrossbar
from repro.rram.lut import LUTConfig, LUTCrossbar, exponential_lut_entries
from repro.rram.programming import ProgrammingConfig, WriteVerifyProgrammer


class TestCAM:
    def test_paper_cam_sub_geometry(self):
        # 512 x 18: 9-bit codewords stored on complementary cell pairs
        config = CAMConfig(rows=512, bits=9)
        assert config.physical_cols == 18
        assert config.num_cells == 512 * 18
        assert config.capacity == 512

    def test_search_finds_stored_code(self):
        cam = CAMCrossbar(CAMConfig(rows=16, bits=4))
        cam.program_codes(np.arange(16))
        queries = np.array([[0], [7], [15]])
        np.testing.assert_array_equal(cam.search_max_codes(queries), [0, 7, 15])

    def test_search_miss_returns_all_zero(self):
        cam = CAMCrossbar(CAMConfig(rows=8, bits=4))
        cam.program_codes(np.arange(8))  # codes 0..7 of a 16-code space
        np.testing.assert_array_equal(cam.search_max_codes(np.array([[12]])), [-1])
        assert cam.search_histograms(np.array([[12]]), 16).sum() == 0

    def test_program_validation(self):
        cam = CAMCrossbar(CAMConfig(rows=4, bits=3))
        with pytest.raises(ValueError):
            cam.program_codes(np.arange(5))  # too many
        with pytest.raises(ValueError):
            cam.program_codes(np.array([8]))  # out of range
        with pytest.raises(ValueError):
            cam.program_codes(np.array([], dtype=np.int64))

    def test_search_before_program_raises(self):
        with pytest.raises(RuntimeError):
            CAMCrossbar().search_max_codes(np.zeros((1, 1), dtype=np.int64))

    def test_search_error_injection_flips_some_matches(self):
        cam = CAMCrossbar(CAMConfig(rows=64, bits=6, search_error_rate=0.2, seed=0))
        cam.program_codes(np.arange(64))
        queries = np.arange(64)[:, None]
        # with a 20% flip rate, the searches cannot all return their query
        assert not np.array_equal(cam.search_max_codes(queries), np.arange(64))

    def test_costs_positive_and_scale_with_rows(self):
        small = CAMCrossbar(CAMConfig(rows=64, bits=9))
        large = CAMCrossbar(CAMConfig(rows=512, bits=9))
        assert large.search_energy_j() > small.search_energy_j()
        assert large.area_um2() > small.area_um2()
        assert small.search_latency_s() > 0

    @given(st.integers(min_value=0, max_value=255))
    @settings(max_examples=50, deadline=None)
    def test_search_is_exact_for_any_stored_code(self, query):
        cam = CAMCrossbar(CAMConfig(rows=256, bits=8))
        cam.program_codes(np.arange(256))
        assert cam.search_max_codes(np.array([[query]]))[0] == query
        assert cam.search_histograms(np.array([[query]]), 256)[0, query] == 1


class TestLUT:
    def test_exponential_entries_match_paper_rule(self):
        # Fig. 2: WL_i = round(e^{x_i} * 2^m) * 2^{-m}, m = 4
        args = np.array([0.0, -1.0, -2.0, -3.0])
        entries = exponential_lut_entries(args, frac_bits=4)
        np.testing.assert_allclose(entries, [1.0, 0.375, 0.125, 0.0625])

    def test_exponential_entries_round_to_zero_for_large_negative(self):
        assert exponential_lut_entries(np.array([-4.0]), 4)[0] == 0.0

    def test_program_and_read_row(self):
        lut = LUTCrossbar(LUTConfig(rows=16, value_bits=8, frac_bits=4))
        values = exponential_lut_entries(-np.arange(16) * 0.25, 4)
        lut.program_values(values)
        np.testing.assert_array_equal(lut.values, values)

    def test_program_validation(self):
        lut = LUTCrossbar(LUTConfig(rows=4, value_bits=6, frac_bits=4))
        with pytest.raises(ValueError):
            lut.program_values(np.array([-1.0]))
        with pytest.raises(ValueError):
            lut.program_values(np.full(5, 1.0))
        with pytest.raises(ValueError):
            lut.program_values(np.array([lut.config.max_value + 1.0]))

    def test_read_before_program_raises(self):
        with pytest.raises(RuntimeError):
            LUTCrossbar().values

    def test_costs_positive(self):
        lut = LUTCrossbar(LUTConfig(rows=256, value_bits=18, frac_bits=4))
        assert lut.read_latency_s() > 0
        assert lut.read_energy_j() > 0
        assert lut.area_um2() > 0


class TestWriteVerifyProgrammer:
    def test_iterations_increase_with_tighter_tolerance(self):
        loose = WriteVerifyProgrammer(config=ProgrammingConfig(tolerance=0.1))
        tight = WriteVerifyProgrammer(config=ProgrammingConfig(tolerance=0.005))
        assert tight.iterations_required() > loose.iterations_required()

    def test_iterations_capped(self):
        programmer = WriteVerifyProgrammer(
            config=ProgrammingConfig(tolerance=1e-6, max_iterations=5)
        )
        assert programmer.iterations_required() == 5

    def test_program_array_costs_scale_with_size(self):
        programmer = WriteVerifyProgrammer()
        small = programmer.program_array(64, 64)
        large = programmer.program_array(128, 128)
        assert large.total_energy_j > small.total_energy_j
        assert large.total_latency_s > small.total_latency_s
        assert large.num_cells == 128 * 128

    def test_row_parallel_faster_than_serial(self):
        programmer = WriteVerifyProgrammer()
        parallel = programmer.program_array(64, 64, row_parallel=True)
        serial = programmer.program_array(64, 64, row_parallel=False)
        assert parallel.total_latency_s < serial.total_latency_s
        assert parallel.total_energy_j == pytest.approx(serial.total_energy_j)

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            WriteVerifyProgrammer().program_array(0, 10)
