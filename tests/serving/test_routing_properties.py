"""Routing invariants: property tests over random topologies and traffic.

Hypothesis drives the multi-queue router with random fleets, policies,
link latencies and batching and asserts what any correct topology-aware
scheduler obeys: request conservation (every arrival is served exactly
once), the network stage is causal (no dispatch before the front-end hop
lands), steal causality (every steal record names a real batch served
off-queue after its decision instant, with chip failures killing and
retrying batches too), and the zero-cost limit — a
homogeneous fleet with free links, single-request dispatch and stealing
is *bit-identical* to the global-FIFO baseline under JSQ/SED routing.
The last leg also pins serial == parallel determinism for the sharded
routed runs.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving import (
    ChipFleet,
    DynamicBatcher,
    FaultInjector,
    FixedServiceModel,
    NetworkModel,
    NO_BATCHING,
    PoissonArrivals,
    RetryPolicy,
    Router,
    ServingSimulator,
    ShardedServingSimulator,
)

# a random routed scenario: traffic, topology, policy and batching
SCENARIO = {
    "num_requests": st.integers(min_value=1, max_value=120),
    "rate_rps": st.floats(min_value=10.0, max_value=5000.0),
    "service_s": st.floats(min_value=1e-5, max_value=5e-3),
    "num_chips": st.integers(min_value=1, max_value=5),
    "max_batch": st.integers(min_value=1, max_value=8),
    "max_wait_s": st.sampled_from([0.0, 1e-4, 2e-3]),
    "policy": st.sampled_from(
        ["round_robin", "join_shortest_queue", "shortest_expected_delay"]
    ),
    "link_latency_s": st.sampled_from([0.0, 1e-5, 5e-4]),
    "steal_latency_s": st.sampled_from([0.0, 2e-5]),
    "stealing": st.booleans(),
    "speed_skew": st.sampled_from([1.0, 4.0]),
    "seed": st.integers(min_value=0, max_value=2**16),
}
scenarios = st.fixed_dictionaries(SCENARIO)
# the same, with per-chip failures (mean time between failures; None: off)
fault_scenarios = st.fixed_dictionaries(
    {**SCENARIO, "mtbf_s": st.sampled_from([None, 2e-3, 2e-2])}
)


def simulate(params):
    requests = PoissonArrivals(
        params["rate_rps"], seq_len=128, seed=params["seed"]
    ).generate(params["num_requests"])
    num_chips = params["num_chips"]
    speedups = [params["speed_skew"]] + [1.0] * (num_chips - 1)
    fleet = ChipFleet(
        FixedServiceModel(params["service_s"], request_energy_j=1e-6),
        num_chips=num_chips,
        speedups=speedups,
    )
    batcher = DynamicBatcher(
        max_batch_size=params["max_batch"], max_wait_s=params["max_wait_s"]
    )
    router = Router(
        policy=params["policy"],
        network=NetworkModel(
            link_latency_s=params["link_latency_s"],
            steal_latency_s=params["steal_latency_s"],
        ),
        stealing=params["stealing"],
    )
    faults = {}
    if params.get("mtbf_s") is not None:
        faults = dict(
            faults=FaultInjector(
                mtbf_s=params["mtbf_s"], detection_s=1e-4, repair_s=5e-4, seed=params["seed"]
            ),
            retry=RetryPolicy(max_attempts=4),
        )
    simulator = ServingSimulator(fleet, batcher, router=router, **faults)
    return requests, simulator.run(requests)


class TestRoutingProperties:
    @given(scenarios)
    @settings(max_examples=60, deadline=None)
    def test_requests_conserved(self, params):
        requests, report = simulate(params)
        assert report.num_requests == len(requests)
        assert sorted(report.requests.index.tolist()) == [r.index for r in requests]
        assert report.routing.num_routed == len(requests)
        assert sum(report.routing.queue_requests) == len(requests)

    @given(scenarios)
    @settings(max_examples=60, deadline=None)
    def test_no_dispatch_before_the_hop_lands(self, params):
        _, report = simulate(params)
        hop = params["link_latency_s"]
        for record in report.requests:
            assert record.dispatch_s >= record.arrival_s + hop - 1e-12
        assert report.routing.route_network_s == pytest.approx(
            hop * report.routing.num_routed
        )

    @given(fault_scenarios)
    @settings(max_examples=60, deadline=None)
    def test_steal_causality(self, params):
        _, report = simulate(params)
        stats = report.routing
        if not params["stealing"]:
            assert stats.stolen_batches == 0
            return
        assert len(stats.steals) == stats.stolen_batches
        for steal in stats.steals:
            assert steal.queue != steal.chip
            batch = report.batches[steal.batch_index]
            assert batch.chip == steal.chip
            assert batch.dispatch_s == pytest.approx(
                steal.decided_s + params["steal_latency_s"]
            )

    @given(scenarios)
    @settings(max_examples=40, deadline=None)
    def test_batches_never_overlap_on_a_chip(self, params):
        _, report = simulate(params)
        by_chip: dict[int, list] = {}
        for batch in report.batches:
            by_chip.setdefault(batch.chip, []).append(batch)
        for batches in by_chip.values():
            batches.sort(key=lambda b: b.dispatch_s)
            for earlier, later in zip(batches, batches[1:]):
                assert later.dispatch_s >= earlier.completion_s - 1e-12


# the zero-cost limit: only the policies that route to the
# lowest-indexed idle chip reduce to the global FIFO (round_robin
# genuinely reorders service and is excluded by design)
identity_scenarios = st.fixed_dictionaries(
    {
        "num_requests": st.integers(min_value=1, max_value=150),
        "rate_rps": st.floats(min_value=50.0, max_value=8000.0),
        "service_s": st.floats(min_value=1e-5, max_value=5e-3),
        "num_chips": st.integers(min_value=1, max_value=5),
        "policy": st.sampled_from(
            ["join_shortest_queue", "shortest_expected_delay"]
        ),
        "seed": st.integers(min_value=0, max_value=2**16),
    }
)


class TestZeroCostIdentity:
    @given(identity_scenarios)
    @settings(max_examples=60, deadline=None)
    def test_homogeneous_zero_delay_matches_global_fifo(self, params):
        requests = PoissonArrivals(
            params["rate_rps"], seq_len=128, seed=params["seed"]
        ).generate(params["num_requests"])
        fleet_kwargs = dict(
            service_model=FixedServiceModel(
                params["service_s"], request_energy_j=1e-6, idle_power_w=0.1
            ),
            num_chips=params["num_chips"],
        )
        baseline = ServingSimulator(ChipFleet(**fleet_kwargs), NO_BATCHING).run(
            requests
        )
        routed = ServingSimulator(
            ChipFleet(**fleet_kwargs),
            NO_BATCHING,
            router=Router(policy=params["policy"]),
        ).run(requests)
        assert routed.requests == baseline.requests
        assert routed.batches == baseline.batches
        assert routed.queue_peak == baseline.queue_peak
        assert routed.chip_busy_s == baseline.chip_busy_s


class TestShardedRoutedDeterminism:
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        policy=st.sampled_from(
            ["round_robin", "join_shortest_queue", "shortest_expected_delay"]
        ),
    )
    @settings(max_examples=10, deadline=None)
    def test_serial_matches_parallel(self, seed, policy):
        arrivals = PoissonArrivals(3000.0, seq_len=[64, 128], seed=seed)
        router = Router(
            policy=policy,
            network=NetworkModel(link_latency_s=1e-5, steal_latency_s=1e-5),
        )

        def run(parallel: bool):
            fleet = ChipFleet(
                FixedServiceModel(1e-3, request_energy_j=1e-6),
                num_chips=4,
            )
            simulator = ShardedServingSimulator(
                fleet, num_shards=2, router=router, parallel=parallel
            )
            return simulator.run_poisson(arrivals, 400)

        serial, parallel = run(False), run(True)
        assert serial.requests == parallel.requests
        assert serial.batches == parallel.batches
        assert serial.routing == parallel.routing
