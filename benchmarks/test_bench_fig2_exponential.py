"""E3 — Fig. 2 behaviour: the CAM + LUT + counter + VMM exponential unit.

Checks that the stored LUT entries follow the paper's quantisation rule
``WL_i = round(e^{x_i} * 2^m) * 2^{-m}`` with m = 4 and benchmarks the unit
processing a full row of difference codes, including the single-pass VMM
summation of the denominator.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import SoftmaxEngineConfig
from repro.core.exponent import ExponentialUnit
from repro.rram.lut import exponential_lut_entries
from repro.utils.fixed_point import CNEWS_FORMAT, MRPC_FORMAT

from conftest import record


def test_bench_exponential_row(benchmark):
    """Exponential lookup + histogram + VMM summation over one 128-element row."""
    config = SoftmaxEngineConfig(fmt=CNEWS_FORMAT)
    unit = ExponentialUnit(config)
    rng = np.random.default_rng(0)
    codes = rng.integers(0, 40, size=(1, 128))

    result = benchmark(unit.process_batch, codes)

    assert result.denominators[0] == np.sum(result.exponentials)
    record(
        benchmark,
        lut_rows=config.exp_rows,
        lut_frac_bits=config.lut_frac_bits,
        active_counters=unit.counters.num_counters,
        row_latency_ns=round(unit.row_latency_s(128) * 1e9, 2),
        row_energy_pj=round(unit.row_energy_j(128) * 1e12, 2),
        area_um2=round(unit.area_um2(), 1),
    )


def test_bench_lut_entries_match_paper_rule(benchmark):
    """The programmed LUT equals round(e^x * 2^4) / 2^4 for every level (Fig. 2)."""
    config = SoftmaxEngineConfig(fmt=MRPC_FORMAT)

    def build_and_check():
        unit = ExponentialUnit(config)
        levels = np.arange(unit.lut_values.size)
        expected = exponential_lut_entries(-levels * config.fmt.resolution, config.lut_frac_bits)
        np.testing.assert_allclose(unit.lut_values, expected)
        return unit.lut_values

    values = benchmark(build_and_check)

    # the Fig. 2 example values: e^0 = 1, e^-1 ~ 0.375, e^-2 ~ 0.125 at m = 4
    eight = int(round(1.0 / config.fmt.resolution))
    record(
        benchmark,
        lut_at_0=float(values[0]),
        lut_at_minus1=float(values[eight]),
        lut_at_minus2=float(values[2 * eight]),
        nonzero_entries=int(np.count_nonzero(values)),
    )
    assert values[0] == 1.0
    assert values[eight] == 0.375
    assert values[2 * eight] == 0.125
