"""The routed loop's cost over the global loop's, as a deterministic count.

``benchmarks/test_bench_routing.py::test_bench_router_overhead`` bounds
the routed loop's wall time at 1.2x the global FIFO's on a homogeneous
4-chip fleet with free links, no batching and shortest-expected-delay
routing.  On a shared host that wall ratio moves with other tenants'
load.  This test bounds a proxy of it that does not: the Python
bytecodes each loop executes per request over 2,000 requests of the same
workload, counted with opcode tracing (``tests/opcode_count.py``).  The
routed run may execute at most 1.24x the global run's bytecodes.

Counts differ between CPython versions, and the bound was measured on
CPython 3.11, so the test runs on 3.11 only.
"""

from __future__ import annotations

import sys

import pytest

from opcode_count import count_opcodes
from repro.serving import (
    NO_BATCHING,
    ChipFleet,
    PoissonArrivals,
    Router,
    ServiceModel,
    ServingSimulator,
)

NUM_REQUESTS = 2_000
MAX_RATIO = 1.24


class PerTokenModel(ServiceModel):
    """The overhead benchmark's pricing: ``batch x (base + seq_len x per_token)``."""

    def __init__(self, base_s: float, per_token_s: float) -> None:
        self.base_s = base_s
        self.per_token_s = per_token_s

    def batch_latency_s(self, batch_size: int, seq_len: int) -> float:
        return batch_size * (self.base_s + seq_len * self.per_token_s)

    def batch_energy_j(self, batch_size: int, seq_len: int) -> float:
        return 0.0


def simulator(router: Router | None) -> ServingSimulator:
    fleet = ChipFleet(service_model=PerTokenModel(base_s=0.0, per_token_s=2e-5), num_chips=4)
    return ServingSimulator(fleet, NO_BATCHING, router=router)


@pytest.mark.skipif(
    sys.version_info[:2] != (3, 11),
    reason="bytecode counts differ between CPython versions; the bound was measured on 3.11",
)
def test_routed_loop_runs_at_most_1_24x_the_global_bytecodes():
    requests = PoissonArrivals(3000.0, seq_len=64, seed=6).generate(NUM_REQUESTS)
    global_fifo = simulator(None)
    routed = simulator(Router(policy="shortest_expected_delay"))
    global_count = count_opcodes(lambda: global_fifo.run(requests))
    routed_count = count_opcodes(lambda: routed.run(requests))
    assert routed.last_profile.num_requests == global_fifo.last_profile.num_requests == NUM_REQUESTS
    ratio = routed_count / global_count
    assert ratio <= MAX_RATIO, (
        f"routed {routed_count / NUM_REQUESTS:.0f} vs global "
        f"{global_count / NUM_REQUESTS:.0f} bytecodes per request: ratio {ratio:.3f}"
    )
