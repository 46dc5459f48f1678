"""Heap events per request of the serving loop, on a fixed baseline.

60k Poisson requests at 3,000/s through 4 chips of 1 ms fixed service,
batch cap 8 and a 2 ms wait.  Open-loop arrivals are read from a sorted
cursor and network hops from per-latency FIFO lanes, not the heap; a
plain dispatch sweep is scheduled only when one could act, and it runs in
place when nothing else is due at its instant.  What is left on the heap
is about one completion per batch, one maturity timer per request and the
few sweeps that must wait their turn.  The counts are exact and
deterministic (no wall clock), so the bounds are hard gates:

* the global loop pops at most 1.5 events per request (pushing every
  arrival through the heap and sweeping at every landing and completion
  measured 3.3);
* the routed loop, behind 20 us links and 10 us steal hops, pops at most
  2.0 (hops on the heap and a sweep at every landing while a chip idled
  measured 3.4).
"""

from __future__ import annotations

import pytest

from repro.serving import (
    AdmissionController,
    ChipFleet,
    DynamicBatcher,
    FaultInjector,
    FixedServiceModel,
    NetworkModel,
    PoissonArrivals,
    RetryPolicy,
    Router,
    ServingSimulator,
)

NUM_REQUESTS = 60_000
NETWORK = NetworkModel(link_latency_s=20e-6, steal_latency_s=10e-6)


def faulted_hooks() -> dict:
    return dict(
        faults=FaultInjector.for_capacity_loss(0.01, repair_s=5e-3, seed=1),
        retry=RetryPolicy(deadline_s=0.05),
        admission=AdmissionController(max_queue_depth=256, degraded_max_batch=4),
    )


def simulator(loop: str) -> ServingSimulator:
    fleet = ChipFleet(FixedServiceModel(1e-3), num_chips=4)
    if loop == "edf":
        return ServingSimulator(fleet, DynamicBatcher.edf(max_batch_size=8, max_wait_s=2e-3))
    batcher = DynamicBatcher(max_batch_size=8, max_wait_s=2e-3)
    if loop == "faults":
        return ServingSimulator(fleet, batcher, **faulted_hooks())
    if loop == "sed_steal":
        return ServingSimulator(fleet, batcher, router=Router(network=NETWORK))
    if loop == "sed_no_steal":
        return ServingSimulator(fleet, batcher, router=Router(network=NETWORK, stealing=False))
    if loop == "round_robin_faults":
        router = Router("round_robin", network=NETWORK)
        return ServingSimulator(fleet, batcher, router=router, **faulted_hooks())
    return ServingSimulator(fleet, batcher)


def events_per_request(loop: str) -> float:
    requests = PoissonArrivals(3000.0, seq_len=128, seed=1).generate(NUM_REQUESTS)
    simulator_ = simulator(loop)
    report = simulator_.run(requests)
    profile = simulator_.last_profile
    assert report.num_offered == NUM_REQUESTS
    if loop.endswith("faults"):
        assert report.num_failures > 0 and report.num_retries > 0
    assert profile.events_popped == profile.events_scheduled
    return profile.events_popped / NUM_REQUESTS


@pytest.mark.parametrize("loop", ["fifo", "edf", "faults"])
def test_global_loop_pops_at_most_1_5_events_per_request(loop):
    assert events_per_request(loop) <= 1.5


@pytest.mark.parametrize("loop", ["sed_steal", "sed_no_steal", "round_robin_faults"])
def test_routed_loop_pops_at_most_2_events_per_request(loop):
    assert events_per_request(loop) <= 2.0
