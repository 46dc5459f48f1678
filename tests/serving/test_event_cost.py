"""Heap events per request of the global loop, on a fixed baseline.

60k Poisson requests at 3,000/s through 4 chips of 1 ms fixed service,
batch cap 8 and a 2 ms wait.  Open-loop arrivals are read from a sorted
cursor, not the heap, and a plain dispatch sweep is scheduled only when
one could act, so the loop pops at most 1.5 heap events per request:
about one completion per batch, one maturity timer per request and the
sweeps that release batches.  The count is exact and deterministic (no
wall clock), so the bound is a hard gate; pushing every arrival through
the heap and sweeping at every landing and completion measured 3.3.
"""

from __future__ import annotations

import pytest

from repro.serving import (
    AdmissionController,
    ChipFleet,
    DynamicBatcher,
    FaultInjector,
    FixedServiceModel,
    PoissonArrivals,
    RetryPolicy,
    ServingSimulator,
)

NUM_REQUESTS = 60_000


def simulator(loop: str) -> ServingSimulator:
    fleet = ChipFleet(FixedServiceModel(1e-3), num_chips=4)
    if loop == "edf":
        return ServingSimulator(fleet, DynamicBatcher.edf(max_batch_size=8, max_wait_s=2e-3))
    batcher = DynamicBatcher(max_batch_size=8, max_wait_s=2e-3)
    if loop == "faults":
        return ServingSimulator(
            fleet,
            batcher,
            faults=FaultInjector.for_capacity_loss(0.01, repair_s=5e-3, seed=1),
            retry=RetryPolicy(deadline_s=0.05),
            admission=AdmissionController(max_queue_depth=256, degraded_max_batch=4),
        )
    return ServingSimulator(fleet, batcher)


@pytest.mark.parametrize("loop", ["fifo", "edf", "faults"])
def test_global_loop_pops_at_most_1_5_events_per_request(loop):
    requests = PoissonArrivals(3000.0, seq_len=128, seed=1).generate(NUM_REQUESTS)
    simulator_ = simulator(loop)
    report = simulator_.run(requests)
    profile = simulator_.last_profile
    assert report.num_offered == NUM_REQUESTS
    if loop == "faults":
        assert report.num_failures > 0 and report.num_retries > 0
    assert profile.events_popped == profile.events_scheduled
    assert profile.events_popped / NUM_REQUESTS <= 1.5
