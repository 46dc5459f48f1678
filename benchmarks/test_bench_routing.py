"""Routing benchmark: the cost oracle's win and the router's overhead.

Two gates guard the multi-queue router:

* **Win** — 30k requests of skewed-length traffic (85% short, 15% long)
  through a mixed big/small fleet complete in under a second of wall
  time, and shortest-expected-delay routing with stealing beats the
  global FIFO on goodput while cutting p99 to at most 0.8x — the
  length-blind queue pads mixed batches to the long length and parks
  long requests on small chips, the oracle does not.
* **Overhead** — on a homogeneous fleet with free links the router's
  extra bookkeeping (route decision per request, per-queue dispatch
  sweep) costs at most 1.2x the global-FIFO wall for the same traffic.

The service model here is a deliberately cheap per-token pricing (no
accelerator schedules) so the benchmark times the *event loop and
router*, not the pricing.
"""

from __future__ import annotations

import pytest

from repro.serving import (
    ChipFleet,
    DynamicBatcher,
    NetworkModel,
    NO_BATCHING,
    PoissonArrivals,
    Router,
    ServiceModel,
    ServingSimulator,
    SLOClass,
    SLOPolicy,
)

from conftest import best_of, record

SHORT_LEN, LONG_LEN = 64, 512
NUM_REQUESTS = 30_000
RATE_RPS = 10_000.0


class PerTokenModel(ServiceModel):
    """Length-sensitive pricing: ``batch x (base + seq_len x per_token)``."""

    def __init__(self, base_s: float, per_token_s: float) -> None:
        self.base_s = base_s
        self.per_token_s = per_token_s

    def batch_latency_s(self, batch_size: int, seq_len: int) -> float:
        return batch_size * (self.base_s + seq_len * self.per_token_s)

    def batch_energy_j(self, batch_size: int, seq_len: int) -> float:
        return 0.0


def mixed_fleet() -> ChipFleet:
    # the big chip (0) pays a fixed setup but almost nothing per token:
    # shorts are marginally cheaper on the small chips, longs ~5x cheaper
    # on the big one — the shape a cost oracle can exploit and a
    # length-blind queue cannot
    small = lambda: PerTokenModel(base_s=0.0, per_token_s=3.5e-6)
    return ChipFleet(
        service_models=[
            PerTokenModel(base_s=2.4e-4, per_token_s=2.5e-7),
            small(),
            small(),
            small(),
        ]
    )


def skewed_requests():
    lens = (SHORT_LEN,) * 17 + (LONG_LEN,) * 3
    slo = SLOPolicy((SLOClass("interactive", 20e-3), SLOClass("batch", 200e-3)))
    return slo.tag_by_length(
        PoissonArrivals(RATE_RPS, seq_len=lens, seed=5).generate(NUM_REQUESTS),
        boundaries=(SHORT_LEN,),
    )


@pytest.mark.smoke
def test_bench_routing_beats_global_fifo(benchmark):
    """30k skewed requests: SED+stealing vs the global queue, sub-second."""
    requests = skewed_requests()
    batcher = DynamicBatcher(max_batch_size=8, max_wait_s=1e-3)
    router = Router(
        policy="shortest_expected_delay",
        network=NetworkModel(link_latency_s=2e-5, steal_latency_s=1e-5),
    )

    routed = ServingSimulator(mixed_fleet(), batcher, router=router)
    report = benchmark.pedantic(routed.run, args=(requests,), rounds=1, iterations=1)
    wall = benchmark.stats["mean"]

    fifo_report = ServingSimulator(mixed_fleet(), batcher).run(requests)

    sed_goodput, fifo_goodput = report.goodput_rps, fifo_report.goodput_rps
    record(
        benchmark,
        wall_s=round(wall, 3),
        requests_per_wall_second=round(NUM_REQUESTS / wall),
        sed_goodput_rps=round(sed_goodput, 1),
        fifo_goodput_rps=round(fifo_goodput, 1),
        sed_p99_ms=round(report.p99_latency_s * 1e3, 2),
        fifo_p99_ms=round(fifo_report.p99_latency_s * 1e3, 2),
        stolen_batches=report.routing.stolen_batches,
    )
    assert report.num_requests == NUM_REQUESTS
    assert wall < 1.0
    # the headline: the cost oracle wins on both axes at this load
    assert sed_goodput >= fifo_goodput
    assert report.p99_latency_s <= 0.8 * fifo_report.p99_latency_s


@pytest.mark.smoke
def test_bench_router_overhead(benchmark):
    """Per-chip queues on a homogeneous fleet cost <= 1.2x the global FIFO."""
    requests = PoissonArrivals(3000.0, seq_len=SHORT_LEN, seed=6).generate(
        NUM_REQUESTS
    )
    fleet_kwargs = dict(
        service_model=PerTokenModel(base_s=0.0, per_token_s=2e-5), num_chips=4
    )

    def run_global():
        ServingSimulator(ChipFleet(**fleet_kwargs), NO_BATCHING).run(requests)

    def run_routed():
        ServingSimulator(
            ChipFleet(**fleet_kwargs),
            NO_BATCHING,
            router=Router(policy="shortest_expected_delay"),
        ).run(requests)

    global_wall = best_of(run_global, 3)
    routed_wall = benchmark.pedantic(
        lambda: best_of(run_routed, 3), rounds=1, iterations=1
    )
    overhead = routed_wall / global_wall
    record(
        benchmark,
        global_wall_s=round(global_wall, 3),
        routed_wall_s=round(routed_wall, 3),
        overhead_x=round(overhead, 3),
    )
    assert overhead <= 1.2
