"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures (see
DESIGN.md's experiment index) and attaches the reproduced numbers to
``benchmark.extra_info`` so they appear in the pytest-benchmark report next
to the timing data.
"""

from __future__ import annotations

import time

import pytest


def record(benchmark, **values) -> None:
    """Attach reproduced experiment values to the benchmark report."""
    for key, value in values.items():
        benchmark.extra_info[key] = value


def best_of(fn, repeats: int) -> float:
    """Minimum wall time of ``repeats`` calls (noise-robust point estimate)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def best_of_alternating(fns, repeats: int) -> list[float]:
    """Minimum wall time of each of ``fns`` over ``repeats`` interleaved rounds.

    Every round times each function once, in order, so a change of host
    speed during the measurement hits all of them alike instead of only the
    one whose block it overlaps.
    """
    best = [float("inf")] * len(fns)
    for _ in range(repeats):
        for index, fn in enumerate(fns):
            start = time.perf_counter()
            fn()
            best[index] = min(best[index], time.perf_counter() - start)
    return best


@pytest.fixture
def paper_values() -> dict[str, float]:
    """The headline numbers the paper reports, for side-by-side comparison."""
    return {
        "softmax_share_at_512": 0.5920,
        "table1_star_area_ratio": 0.06,
        "table1_star_power_ratio": 0.05,
        "table1_softermax_area_ratio": 0.33,
        "table1_softermax_power_ratio": 0.12,
        "fig3_star_gops_per_watt": 612.66,
        "fig3_gain_over_gpu": 30.63,
        "fig3_gain_over_pipelayer": 4.32,
        "fig3_gain_over_retransformer": 1.31,
        "bits_cnews": 8,
        "bits_mrpc": 9,
        "bits_cola": 7,
    }
