"""Sharded serving: scale the fleet simulation across worker processes.

Run with:  python examples/sharded_serving.py

One Python event loop tops out around a hundred thousand events per
second, three orders of magnitude short of simulating a day of
planet-scale traffic in minutes.  This script shows the way out: Poisson
splitting makes a serving fleet embarrassingly parallel, so the
:class:`ShardedServingSimulator` partitions chips and traffic across
worker-process shards (each an independent, exactly-seeded Poisson
stream), runs a full simulator per shard, and merges the per-shard
reports exactly — pooled latency samples, summed ledgers, offset chip
ids.  The same seed and shard count reproduce the same merged report on
any machine and worker count; a shard of the fleet is still an exact
M/D/1 queue, so the merged run stays pinned to Pollaczek–Khinchine.
"""

from __future__ import annotations

from repro.analysis.serving import ShardedScalingAnalyzer
from repro.serving import (
    ChipFleet,
    DynamicBatcher,
    FixedServiceModel,
    MD1Queue,
    PoissonArrivals,
    ShardedServingSimulator,
    StarServiceModel,
)


def main() -> None:
    # 1. a quarter-million requests over 8 shards, cross-checked on theory
    service = 1e-3
    rate = 0.7 / service  # rho = 0.7 per single-chip shard
    num_shards = 8
    fleet = ChipFleet(FixedServiceModel(service), num_chips=num_shards)
    simulator = ShardedServingSimulator(fleet, num_shards=num_shards)
    report = simulator.run_poisson(
        PoissonArrivals(rate * num_shards, seq_len=128, seed=0), 250_000
    )
    theory = MD1Queue(arrival_rate_rps=rate, service_s=service)
    print(f"merged report: {report.num_requests} requests over "
          f"{report.num_shards} shards / {report.num_chips} chips")
    print(report.format_table())
    deviation = abs(report.mean_wait_s - theory.mean_wait_s) / theory.mean_wait_s
    print(f"per-shard M/D/1 check: merged wait {report.mean_wait_s * 1e3:.3f} ms "
          f"vs P-K {theory.mean_wait_s * 1e3:.3f} ms ({deviation * 100:.2f}% off)\n")

    # 2. determinism: the same seed and shard count reproduce the report
    #    whether shards run serially in-process or across worker processes
    serial = ShardedServingSimulator(fleet, num_shards=num_shards, parallel=False)
    again = serial.run_poisson(
        PoissonArrivals(rate * num_shards, seq_len=128, seed=0), 250_000
    )
    print("serial in-process re-run is bit-identical:",
          again.requests == report.requests and again.batches == report.batches, "\n")

    # 3. a batched STAR fleet: pre-warm pricing once, ship tables to workers
    star = StarServiceModel()
    star_fleet = ChipFleet(star, num_chips=4)
    batcher = DynamicBatcher(max_batch_size=8, max_wait_s=2e-3)
    capacity = 4 * 8 / star.batch_latency_s(8, 128)
    sharded_star = ShardedServingSimulator(
        star_fleet, batcher, num_shards=4
    ).prewarm(batch_sizes=range(1, 9), seq_lens=[128])
    star_report = sharded_star.run_poisson(
        PoissonArrivals(0.8 * capacity, seq_len=128, seed=1), 40_000
    )
    print("STAR fleet, batch-aware pricing tabulated once in the parent:")
    print(star_report.format_table(), "\n")

    # 4. the scaling table (wall-clock, so machine-dependent)
    print("scaling sweep (per-shard work held constant):")
    print(ShardedScalingAnalyzer().format_table())


if __name__ == "__main__":
    main()
