"""Tests for repro.utils.fixed_point."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.fixed_point import (
    CNEWS_FORMAT,
    COLA_FORMAT,
    MRPC_FORMAT,
    FixedPointFormat,
    dequantize_codes,
    quantization_error,
    quantize,
    sqnr_db,
)


class TestFixedPointFormat:
    def test_paper_formats_match_table(self):
        assert CNEWS_FORMAT.total_bits == 8
        assert CNEWS_FORMAT.integer_bits == 6 and CNEWS_FORMAT.frac_bits == 2
        assert MRPC_FORMAT.total_bits == 9
        assert MRPC_FORMAT.integer_bits == 6 and MRPC_FORMAT.frac_bits == 3
        assert COLA_FORMAT.total_bits == 7
        assert COLA_FORMAT.integer_bits == 5 and COLA_FORMAT.frac_bits == 2

    def test_resolution_is_power_of_two(self):
        fmt = FixedPointFormat(6, 2)
        assert fmt.resolution == 0.25
        assert FixedPointFormat(6, 3).resolution == 0.125

    def test_max_value(self):
        fmt = FixedPointFormat(6, 2)
        assert fmt.max_value == pytest.approx(63.75)
        assert fmt.num_levels == 256

    def test_signed_format_adds_sign_bit(self):
        unsigned = FixedPointFormat(6, 2, signed=False)
        signed = FixedPointFormat(6, 2, signed=True)
        assert signed.total_bits == unsigned.total_bits + 1
        assert signed.min_value == -signed.max_value
        assert unsigned.min_value == 0.0

    def test_invalid_formats_raise(self):
        with pytest.raises(ValueError):
            FixedPointFormat(-1, 2)
        with pytest.raises(ValueError):
            FixedPointFormat(2, -1)
        with pytest.raises(ValueError):
            FixedPointFormat(0, 0)

    def test_to_code_round_trip_on_grid(self):
        fmt = FixedPointFormat(4, 2)
        values = np.arange(fmt.num_levels) * fmt.resolution
        codes = fmt.to_code(values)
        assert np.array_equal(codes, np.arange(fmt.num_levels))
        np.testing.assert_allclose(fmt.from_code(codes), values)

    def test_quantize_saturates(self):
        fmt = FixedPointFormat(3, 1)
        assert fmt.quantize(1000.0) == pytest.approx(fmt.max_value)
        assert fmt.quantize(-1000.0) == pytest.approx(0.0)
        signed = FixedPointFormat(3, 1, signed=True)
        assert signed.quantize(-1000.0) == pytest.approx(-signed.max_value)

    def test_quantize_rounds_to_nearest(self):
        fmt = FixedPointFormat(4, 2)
        assert fmt.quantize(1.1) == pytest.approx(1.0)
        assert fmt.quantize(1.13) == pytest.approx(1.25)

    def test_str_representation(self):
        assert "6.2" in str(FixedPointFormat(6, 2))


class TestHelpers:
    def test_quantize_function_matches_method(self, rng):
        fmt = FixedPointFormat(5, 3)
        values = rng.uniform(0, 30, size=100)
        np.testing.assert_allclose(quantize(values, fmt), fmt.quantize(values))

    def test_dequantize_codes(self):
        fmt = FixedPointFormat(4, 2)
        np.testing.assert_allclose(dequantize_codes(np.array([0, 1, 4]), fmt), [0.0, 0.25, 1.0])

    def test_quantization_error_bounded_by_half_lsb(self, rng):
        fmt = FixedPointFormat(6, 2)
        values = rng.uniform(0, fmt.max_value, size=500)
        errors = quantization_error(values, fmt)
        assert np.all(np.abs(errors) <= fmt.resolution / 2 + 1e-12)

    def test_sqnr_increases_with_precision(self, rng):
        values = rng.uniform(0, 30, size=1000)
        low = sqnr_db(values, FixedPointFormat(5, 1).quantize(values))
        high = sqnr_db(values, FixedPointFormat(5, 4).quantize(values))
        assert high > low

    def test_sqnr_exact_is_infinite(self):
        values = np.array([1.0, 2.0, 3.0])
        assert math.isinf(sqnr_db(values, values))

    def test_sqnr_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            sqnr_db(np.zeros(3), np.zeros(4))


class TestFixedPointProperties:
    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=6),
        st.floats(min_value=-500, max_value=500, allow_nan=False),
    )
    @settings(max_examples=150, deadline=None)
    def test_quantize_idempotent(self, integer_bits, frac_bits, value):
        if integer_bits + frac_bits == 0:
            return
        fmt = FixedPointFormat(integer_bits, frac_bits)
        once = fmt.quantize(value)
        twice = fmt.quantize(once)
        assert once == pytest.approx(float(twice))

    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=6),
        st.floats(min_value=0, max_value=200, allow_nan=False),
    )
    @settings(max_examples=150, deadline=None)
    def test_quantized_value_in_range(self, integer_bits, frac_bits, value):
        fmt = FixedPointFormat(integer_bits, frac_bits)
        q = float(fmt.quantize(value))
        assert fmt.min_value <= q <= fmt.max_value

    @given(st.floats(min_value=0, max_value=60, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_error_bounded_for_in_range_values(self, value):
        fmt = CNEWS_FORMAT
        q = float(fmt.quantize(value))
        assert abs(q - value) <= fmt.resolution / 2 + 1e-12
