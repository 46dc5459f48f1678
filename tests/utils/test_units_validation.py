"""Tests for repro.utils.units and repro.utils.validation."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.rram.crossbar import CrossbarConfig
from repro.rram.noise import NoiseConfig
from repro.serving.batcher import DynamicBatcher
from repro.serving.routing import NetworkModel
from repro.utils.units import GIGA, NS, PJ, format_si, to_giga_ops_per_watt
from repro.utils.validation import (
    as_1d_float_array,
    as_2d_float_array,
    require_in_range,
    require_non_negative,
    require_positive,
    require_power_of_two,
)


class TestUnits:
    def test_constants(self):
        assert NS == 1e-9
        assert PJ == 1e-12
        assert GIGA == 1e9

    def test_to_giga_ops_per_watt(self):
        # 1e12 ops in 1 s at 10 W -> 100 GOPs/s/W
        assert to_giga_ops_per_watt(1e12, 1.0, 10.0) == pytest.approx(100.0)

    def test_to_giga_ops_per_watt_matches_paper_style_numbers(self):
        # STAR: 612.66 GOPs/s/W means 612.66e9 ops per joule
        ops = 612.66e9
        assert to_giga_ops_per_watt(ops, 1.0, 1.0) == pytest.approx(612.66)

    def test_to_giga_ops_per_watt_rejects_non_positive(self):
        with pytest.raises(ValueError):
            to_giga_ops_per_watt(1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            to_giga_ops_per_watt(1.0, 1.0, -1.0)

    def test_format_si(self):
        assert format_si(2.5e-9, "s") == "2.5 ns"
        assert format_si(3.2e9, "OPs") == "3.2 GOPs"
        assert format_si(0, "W") == "0 W"
        assert "m" in format_si(5e-3, "W")


class TestValidation:
    def test_require_positive(self):
        assert require_positive(1.5, "x") == 1.5
        with pytest.raises(ValueError, match="x"):
            require_positive(0.0, "x")

    def test_require_non_negative(self):
        assert require_non_negative(0.0, "x") == 0.0
        assert require_non_negative(math.inf, "x") == math.inf
        with pytest.raises(ValueError):
            require_non_negative(-1e-9, "x")
        with pytest.raises(ValueError, match="x must be non-negative, got nan"):
            require_non_negative(math.nan, "x")

    @pytest.mark.parametrize(
        "build, name",
        [
            (lambda: NoiseConfig(read_noise_sigma=math.nan), "read_noise_sigma"),
            (lambda: CrossbarConfig(wire_resistance_ohm=math.nan), "wire_resistance_ohm"),
            (lambda: DynamicBatcher(max_wait_s=math.nan), "max_wait_s"),
            (lambda: NetworkModel(link_latency_s=math.nan), "link_latency_s"),
        ],
        ids=["NoiseConfig", "CrossbarConfig", "DynamicBatcher", "NetworkModel"],
    )
    def test_constructor_rejects_nan(self, build, name):
        # every comparison against NaN is false, so a `value < 0` check
        # let these through: a silently noise-free crossbar, NaN outputs,
        # requests lost by the batcher and a NaN latency percentile
        with pytest.raises(ValueError, match=f"{name} must be non-negative, got nan"):
            build()

    def test_require_in_range(self):
        assert require_in_range(0.5, 0.0, 1.0, "x") == 0.5
        with pytest.raises(ValueError):
            require_in_range(1.5, 0.0, 1.0, "x")

    def test_require_power_of_two(self):
        assert require_power_of_two(128, "x") == 128
        for bad in (0, -2, 3, 48):
            with pytest.raises(ValueError):
                require_power_of_two(bad, "x")

    def test_as_1d_float_array(self):
        out = as_1d_float_array([1, 2, 3], "v")
        assert out.dtype == np.float64
        assert out.shape == (3,)
        assert as_1d_float_array(5.0, "v").shape == (1,)
        with pytest.raises(ValueError):
            as_1d_float_array(np.zeros((2, 2)), "v")

    def test_as_2d_float_array(self):
        out = as_2d_float_array([[1, 2], [3, 4]], "m")
        assert out.shape == (2, 2)
        assert as_2d_float_array([1, 2, 3], "m").shape == (1, 3)
        with pytest.raises(ValueError):
            as_2d_float_array(np.zeros((2, 2, 2)), "m")
