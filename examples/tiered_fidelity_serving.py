"""Tiered-fidelity serving: executed schedules priced at fleet throughput.

Run with:  python examples/tiered_fidelity_serving.py

The analytic STAR cost model prices a dispatch in microseconds but
assumes a perfectly steady pipeline; the executed scheduler replays the
real row-by-row pipeline (and can jitter its stage timings) but costs
milliseconds per call — far too slow to price every dispatch of a
100k-request fleet simulation.  This script shows the middle path: a
:class:`ScheduleTemplate` caches one jitter-free executed run per
``(batch, seq_len, chip config)`` and reprices jittered dispatches with a
single vectorized Gaussian draw, and a :class:`TieredServiceModel` routes
a seeded Bernoulli fraction of dispatches through those templates while
the rest stay analytic.  The result: executed-fidelity tail latencies at
analytic-simulation throughput, with a ``sample_fraction`` dial from 0
(pure analytic, bit-identical to the unwrapped model) to 1 (every
dispatch executed).
"""

from __future__ import annotations

import time

import numpy as np

from repro.analysis.serving import TieredServingAnalyzer
from repro.core.accelerator import STARAccelerator
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


def main() -> None:
    # 1. the template itself: one cold executed run, then microsecond draws
    accelerator = STARAccelerator()
    workload = BertWorkload(config=BERT_BASE, seq_len=128).with_batch(8)
    start = time.perf_counter()
    template = build_schedule_template(accelerator, workload)
    cold = time.perf_counter() - start
    rng = np.random.default_rng(0)
    start = time.perf_counter()
    draws = [template.resample(rng, 0.3) for _ in range(1000)]
    warm = (time.perf_counter() - start) / 1000
    print(f"cold executed schedule: {cold * 1e3:.1f} ms; "
          f"cached resample: {warm * 1e6:.1f} us ({cold / warm:.0f}x)")
    print(f"jitter-free base {template.base_latency_s * 1e3:.2f} ms, "
          f"sigma=0.3 p99 draw {np.percentile(draws, 99) * 1e3:.2f} ms\n")

    # 2. a tiered fleet: 5% of dispatches priced off the executed template
    base = StarServiceModel(seq_len=128)
    tiered = TieredServiceModel(
        base, sample_fraction=0.05, jitter_sigma=0.3, seed=0
    )
    fleet = ChipFleet(tiered, num_chips=4)
    batcher = DynamicBatcher(max_batch_size=8, max_wait_s=2e-3)
    capacity = 4 * 8 / base.batch_latency_s(8, 128)
    simulator = ShardedServingSimulator(fleet, batcher, num_shards=4).prewarm(
        batch_sizes=range(1, 9), seq_lens=[128]
    )
    report = simulator.run_poisson(
        PoissonArrivals(0.6 * capacity, seq_len=128, seed=1), 100_000
    )
    print("100k requests, 4-chip STAR fleet, 5% executed sampling:")
    print(report.format_table(), "\n")

    # 3. the fidelity dial: p99 vs sampled fraction (E13's table)
    print("fidelity sweep — sampled executed fraction vs tail latency:")
    print(TieredServingAnalyzer().format_table())
    print("\n(reproduce under the experiment runner: "
          "python -m repro.experiments e13)")


if __name__ == "__main__":
    main()
