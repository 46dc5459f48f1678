"""Fidelity-tiering benchmark: executed-schedule pricing at fleet throughput.

Two gates guard the tentpole claim that high-fidelity pricing costs
~nothing on the hot path:

* **Resample speed** — pricing one jittered dispatch off a cached
  :class:`~repro.core.schedule_cache.ScheduleTemplate` must be >= 20x
  faster than the cold ``executed_model_schedule`` run it replaces (in
  practice it is thousands of times faster: one vectorized
  ``standard_normal`` call against a per-row schedule execution).
* **Serving overhead** — 100k requests through a prewarmed sharded fleet
  with 5% executed sampling must finish within 2x the wall time of the
  identical analytic-only run.  Both arms ship tabulated pricing tables,
  so the gap isolates the per-dispatch Bernoulli draw + template
  resample, which is the tentpole's hot-path cost.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.core.schedule_cache import build_schedule_template
from repro.nn.bert import BERT_BASE, BertWorkload
from repro.serving import (
    ChipFleet,
    DynamicBatcher,
    PoissonArrivals,
    ShardedServingSimulator,
    StarServiceModel,
    TieredServiceModel,
)

from conftest import record

SEQ_LEN = 128
NUM_REQUESTS = 100_000
NUM_SHARDS = 4
BATCH_GRID = tuple(range(1, 9))


def _sharded(model) -> ShardedServingSimulator:
    fleet = ChipFleet(model, num_chips=NUM_SHARDS)
    simulator = ShardedServingSimulator(
        fleet,
        DynamicBatcher(max_batch_size=8, max_wait_s=2e-3),
        num_shards=NUM_SHARDS,
    )
    return simulator.prewarm(BATCH_GRID, [SEQ_LEN])


def _arrivals(seed: int = 7) -> PoissonArrivals:
    base = StarServiceModel(seq_len=SEQ_LEN)
    capacity = NUM_SHARDS * 8 / base.batch_latency_s(8, SEQ_LEN)
    return PoissonArrivals(0.6 * capacity, seq_len=SEQ_LEN, seed=seed)


@pytest.mark.smoke
def test_bench_template_resample_beats_cold_executed_run(benchmark):
    """One template resample >= 20x faster than one cold executed run."""
    import numpy as np

    from repro.core.accelerator import STARAccelerator

    accelerator = STARAccelerator()
    workload = BertWorkload(config=BERT_BASE, seq_len=SEQ_LEN).with_batch(8)

    start = time.perf_counter()
    template = build_schedule_template(accelerator, workload)
    cold_wall = time.perf_counter() - start

    rng = np.random.default_rng(0)
    rounds = 200
    draws = benchmark.pedantic(
        lambda: [template.resample(rng, 0.3) for _ in range(rounds)],
        rounds=1,
        iterations=1,
    )
    resample_wall = benchmark.stats["mean"] / rounds

    speedup = cold_wall / resample_wall
    record(
        benchmark,
        cold_executed_wall_ms=round(cold_wall * 1e3, 2),
        resample_wall_us=round(resample_wall * 1e6, 2),
        speedup=round(speedup),
    )
    assert len(draws) == rounds
    assert all(draw >= template.base_latency_s for draw in draws)
    assert speedup >= 20.0


@pytest.mark.smoke
def test_bench_sampled_fidelity_within_2x_of_analytic(benchmark):
    """100k requests at 5% executed sampling <= 2x analytic-only wall."""
    stream = _arrivals()

    start = time.perf_counter()
    analytic_report = _sharded(StarServiceModel(seq_len=SEQ_LEN)).run_poisson(
        stream, NUM_REQUESTS
    )
    analytic_wall = time.perf_counter() - start

    tiered = TieredServiceModel(
        StarServiceModel(seq_len=SEQ_LEN),
        sample_fraction=0.05,
        jitter_sigma=0.3,
        seed=7,
    )
    simulator = _sharded(tiered)
    report = benchmark.pedantic(
        simulator.run_poisson, args=(stream, NUM_REQUESTS), rounds=1, iterations=1
    )
    tiered_wall = benchmark.stats["mean"]

    overhead = tiered_wall / analytic_wall
    record(
        benchmark,
        analytic_wall_s=round(analytic_wall, 3),
        tiered_wall_s=round(tiered_wall, 3),
        overhead_x=round(overhead, 3),
        executed_batch_pct=round(report.executed_batch_fraction * 100, 2),
        requests_per_wall_second=round(NUM_REQUESTS / tiered_wall),
        cpu_count=os.cpu_count(),
    )
    assert report.num_requests == NUM_REQUESTS
    assert analytic_report.num_requests == NUM_REQUESTS
    assert report.tiering_enabled
    # the Bernoulli fraction lands near its target at 100k requests
    assert 0.02 < report.executed_batch_fraction < 0.10
    assert overhead <= 2.0
