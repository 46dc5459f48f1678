"""Benchmark: the batched crossbar VMM path of the MatMul engine.

The seed's `MatMulEngine.matmul` re-programmed a fresh tile per block on
every call and pushed activation rows through the crossbar one Python-loop
iteration at a time.  The tile-bank refactor programs the stationary
operand once and streams the whole activation matrix through
`AnalogCrossbar.matvec_batch` in one vectorized pass per tile.

These benchmarks record the batched GEMM's throughput on the flagship
256x128x128 shape (one attention-head context GEMM at BERT scale on
128x128 tiles) and act as the performance gate: the batched path must stay
at least **10x** (CI floor; the flagship number is reported in
``extra_info``) faster than the seed-style row loop, which is re-simulated
on a row sample and extrapolated linearly — rows are independent, so the
per-row cost is uniform.  A second gate bounds what seeded read noise adds
on top of the ideal kernel.
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np
import pytest

from repro.core.config import MatMulEngineConfig
from repro.core.matmul_engine import MatMulEngine
from repro.rram.noise import NoiseConfig

from conftest import best_of, best_of_alternating, record


def _seed_matvec(tile, vector: np.ndarray) -> np.ndarray:
    """The seed's per-vector bit-serial dataflow, replayed verbatim.

    `AnalogCrossbar.matvec` now delegates to the vectorized batched kernels,
    so timing it would understate the seed baseline.  This reproduces the
    seed implementation — a fresh conductance read (full-array copy) and a
    BLAS ``vector @ matrix`` per bit-serial cycle — against the same tile
    state, reaching into the crossbar's private conductance arrays exactly
    the way the historical code did internally (ideal devices, no IR drop,
    differential array, as the MatMul engine configures its tiles).
    """
    cfg = tile.config
    v_read = tile.device.config.read_voltage_v
    g_min = tile.device.config.g_min_s
    span = tile.device.config.g_max_s - g_min
    in_max = float(np.max(vector))
    in_scale = in_max if in_max > 0 else 1.0
    max_input_code = (1 << cfg.input_bits) - 1
    input_codes = np.rint(vector / in_scale * max_input_code).astype(np.int64)
    dac_levels = tile.dac.num_levels
    dac_max = dac_levels - 1
    full_scale = cfg.rows * v_read * span
    accumulated = np.zeros(cfg.cols)
    remaining = input_codes.copy()
    cycle_weight = 1
    for _ in range(cfg.input_cycles):
        slice_codes = remaining % dac_levels
        remaining //= dac_levels
        voltages = tile.dac.drive(slice_codes, v_read)
        g_pos = tile.noise.apply_read(tile._conductance_pos)
        currents = voltages @ g_pos
        if cfg.differential:
            g_neg = tile.noise.apply_read(tile._conductance_neg)
            currents = currents - voltages @ g_neg
        else:
            currents = currents - float(np.sum(voltages)) * g_min
        currents = tile.noise.perturb_current(currents)
        if cfg.differential:
            signs = np.sign(currents)
            currents = signs * tile.adc.convert(np.abs(currents), full_scale)
        else:
            currents = tile.adc.convert(np.clip(currents, 0.0, None), full_scale)
        accumulated += currents * cycle_weight
        cycle_weight *= dac_levels
    return accumulated * dac_max * in_scale * tile._weight_scale / (
        v_read * span * max_input_code
    )


def _seed_row_loop_seconds(
    engine: MatMulEngine, a: np.ndarray, b: np.ndarray, sample_rows: int
) -> float:
    """Wall time of the seed dataflow, extrapolated from a row sample.

    Replays exactly what the seed `MatMulEngine.matmul` did per call:
    program a fresh tile for every ``crossbar_rows x crossbar_cols`` block
    of ``b``, then stream the activation rows through the per-vector VMM one
    at a time with a per-row offset correction.  Rows are independent, so
    the per-row cost is uniform and a sample extrapolates linearly.
    """
    rows, cols = engine.config.crossbar_rows, engine.config.crossbar_cols
    m, k = a.shape
    _, n = b.shape
    sample = min(sample_rows, m)
    out = np.zeros((sample, n))
    start = time.perf_counter()
    for k0 in range(0, k, rows):
        k1 = min(k0 + rows, k)
        for n0 in range(0, n, cols):
            n1 = min(n0 + cols, n)
            block = np.zeros((rows, cols))
            block[: k1 - k0, : n1 - n0] = b[k0:k1, n0:n1]
            tile = engine.new_tile()
            tile.program(block)
            for i in range(sample):
                vector = np.zeros(rows)
                segment = a[i, k0:k1]
                offset = float(np.min(segment))
                vector[: k1 - k0] = segment - offset
                result = _seed_matvec(tile, vector)
                correction = offset * np.sum(block, axis=0)
                out[i, n0:n1] += result[: n1 - n0] + correction[: n1 - n0]
    elapsed = time.perf_counter() - start
    return elapsed * (m / sample)


def test_bench_crossbar_batched_gemm(benchmark):
    """Flagship: 256x128x128 GEMM through the persistent tile bank."""
    engine = MatMulEngine(MatMulEngineConfig())
    rng = np.random.default_rng(0)
    a = rng.normal(size=(256, 128))
    b = rng.normal(size=(128, 128))
    operand = engine.program_operand(b)
    engine.matmul(a, operand)  # warm the allocator and caches

    out = benchmark(engine.matmul, a, operand)

    batch_s = best_of(lambda: engine.matmul(a, operand), repeats=5)
    seed_s = _seed_row_loop_seconds(engine, a, b, sample_rows=32)
    speedup = seed_s / batch_s
    record(
        benchmark,
        m=256,
        k=128,
        n=128,
        batched_gemm_s=round(batch_s, 5),
        seed_row_loop_s=round(seed_s, 3),
        speedup_vs_seed_row_loop=round(speedup, 1),
        batched_rows_per_s=round(256 / batch_s),
    )
    assert out.shape == (256, 128)
    # the batched result is deterministic with ideal devices
    np.testing.assert_array_equal(out, engine.matmul(a, operand))
    assert speedup >= 10.0, (
        f"batched GEMM is only {speedup:.1f}x faster than the seed row loop "
        f"({batch_s * 1e3:.1f} ms vs {seed_s * 1e3:.0f} ms); the ISSUE CI floor is 10x"
    )


def test_bench_operand_reuse_avoids_reprogramming(benchmark):
    """Weight-stationary reuse: matmul on a resident operand writes nothing."""
    engine = MatMulEngine(MatMulEngineConfig())
    rng = np.random.default_rng(1)
    a = rng.normal(size=(64, 128))
    operand = engine.program_operand(rng.normal(size=(128, 128)))
    pulses_before = engine.access_stats.programming_pulses

    benchmark(engine.matmul, a, operand)

    assert engine.access_stats.programming_pulses == pulses_before
    record(
        benchmark,
        programming_pulses_per_reuse=0,
        resident_tiles=operand.num_tiles,
    )


@pytest.mark.smoke
def test_bench_noisy_gemm_overhead(benchmark):
    """Read noise (sigma 0.01) costs at most 15x the ideal GEMM on one operand.

    A 2048x32x32 GEMM on one 32x32 differential tile.  Read noise draws one
    deviate per column and cycle and contracts against fixed matrices, so
    its cost stays within a small factor of the ideal integer kernel's;
    drawing and contracting one perturbed conductance matrix per cell, per
    cycle and per vector cost 65-175x.  The two sides are timed in
    alternation (best of 5 each), so one host-speed phase hits both.
    """
    config = MatMulEngineConfig(crossbar_rows=32, crossbar_cols=32)
    rng = np.random.default_rng(2)
    a = rng.normal(size=(2048, 32))
    b = rng.normal(size=(32, 32))
    ideal = MatMulEngine(config)
    noisy = MatMulEngine(replace(config, noise=NoiseConfig(read_noise_sigma=0.01, seed=3)))
    ideal_operand = ideal.program_operand(b)
    noisy_operand = noisy.program_operand(b)
    ideal.matmul(a, ideal_operand)  # warm the allocator and caches
    noisy.matmul(a, noisy_operand)

    ideal_s, noisy_s = benchmark.pedantic(
        best_of_alternating,
        args=(
            [lambda: ideal.matmul(a, ideal_operand), lambda: noisy.matmul(a, noisy_operand)],
            5,
        ),
        rounds=1,
        iterations=1,
    )
    overhead = noisy_s / ideal_s
    record(
        benchmark,
        ideal_gemm_s=round(ideal_s, 5),
        noisy_gemm_s=round(noisy_s, 5),
        noisy_over_ideal_x=round(overhead, 1),
    )
    assert overhead <= 15.0, (
        f"noisy GEMM takes {overhead:.1f}x the ideal one "
        f"({noisy_s * 1e3:.1f} ms vs {ideal_s * 1e3:.1f} ms); the bound is 15x"
    )
