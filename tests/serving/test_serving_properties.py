"""Serving invariants: property tests and the M/D/1 queueing cross-check.

The property suite drives the simulator with randomly generated traffic,
fleets and batching policies and asserts the structural invariants any
correct serving system obeys: request conservation, causal timestamps,
FIFO dispatch (and FIFO completion within a batch), chip exclusivity,
work conservation (no chip idles while a request past its wait timer
waits) and Little's law at steady state.  The queueing cross-check pins the
simulator's single-chip no-batching limit to the Pollaczek–Khinchine
M/D/1 mean wait — the acceptance criterion of the serving subsystem.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.serving import (
    ChipFleet,
    DynamicBatcher,
    FixedServiceModel,
    MD1Queue,
    MM1Queue,
    NO_BATCHING,
    NetworkModel,
    PoissonArrivals,
    Request,
    Router,
    ServingSimulator,
)

# a random serving scenario: traffic, fleet size and batching policy
scenarios = st.fixed_dictionaries(
    {
        "num_requests": st.integers(min_value=1, max_value=120),
        "rate_rps": st.floats(min_value=10.0, max_value=5000.0),
        "service_s": st.floats(min_value=1e-5, max_value=5e-3),
        "num_chips": st.integers(min_value=1, max_value=5),
        "max_batch": st.integers(min_value=1, max_value=8),
        "max_wait_s": st.sampled_from([0.0, 1e-4, 2e-3]),
        "seed": st.integers(min_value=0, max_value=2**16),
    }
)


def simulate(params):
    requests = PoissonArrivals(
        params["rate_rps"], seq_len=128, seed=params["seed"]
    ).generate(params["num_requests"])
    fleet = ChipFleet(
        FixedServiceModel(params["service_s"], request_energy_j=1e-6),
        num_chips=params["num_chips"],
    )
    batcher = DynamicBatcher(
        max_batch_size=params["max_batch"], max_wait_s=params["max_wait_s"]
    )
    return requests, ServingSimulator(fleet, batcher).run(requests)


class TestServingProperties:
    @given(scenarios)
    @settings(max_examples=60, deadline=None)
    def test_request_conservation(self, params):
        """Every request enters exactly once, completes exactly once."""
        requests, report = simulate(params)
        assert report.num_requests == len(requests)
        assert sorted(r.index for r in report.requests) == sorted(
            r.index for r in requests
        )
        assert sum(batch.size for batch in report.batches) == len(requests)

    @given(scenarios)
    @settings(max_examples=60, deadline=None)
    def test_causality(self, params):
        """arrival <= dispatch <= completion, and waits respect the policy."""
        _, report = simulate(params)
        for record in report.requests:
            assert record.dispatch_s >= record.arrival_s - 1e-12
            assert record.completion_s >= record.dispatch_s

    @given(scenarios)
    @settings(max_examples=60, deadline=None)
    def test_fifo_dispatch_and_batch_completion(self, params):
        """Dispatch follows arrival order; a batch completes its members
        together, in arrival order within the batch."""
        _, report = simulate(params)
        dispatch_order = [r.arrival_s for r in report.requests]
        assert dispatch_order == sorted(dispatch_order)
        by_batch: dict[int, list] = {}
        for record in report.requests:
            by_batch.setdefault(record.batch_index, []).append(record)
        for batch_index, members in by_batch.items():
            batch = report.batches[batch_index]
            assert len(members) == batch.size
            arrivals = [m.arrival_s for m in members]
            assert arrivals == sorted(arrivals)
            for member in members:
                assert member.completion_s == pytest.approx(batch.completion_s)
                assert member.chip == batch.chip

    @given(scenarios)
    @settings(max_examples=60, deadline=None)
    def test_chip_exclusivity(self, params):
        """Batches on the same chip never overlap in time."""
        _, report = simulate(params)
        by_chip: dict[int, list] = {}
        for batch in report.batches:
            by_chip.setdefault(batch.chip, []).append(batch)
        for batches in by_chip.values():
            batches.sort(key=lambda b: b.dispatch_s)
            for earlier, later in zip(batches, batches[1:]):
                assert later.dispatch_s >= earlier.completion_s - 1e-12

    @given(scenarios)
    @settings(max_examples=60, deadline=None)
    def test_batch_size_cap_and_queue_accounting(self, params):
        """No batch exceeds the cap; busy time matches the batch records."""
        _, report = simulate(params)
        assert all(b.size <= params["max_batch"] for b in report.batches)
        for chip in range(report.num_chips):
            from_batches = sum(
                b.service_s for b in report.batches if b.chip == chip
            )
            assert report.chip_busy_s[chip] == pytest.approx(from_batches)

    def test_littles_law_at_steady_state(self):
        """Time-averaged occupancy ~= arrival rate x mean latency (N = lambda T)."""
        service = 1e-3
        rate = 0.6 / service
        requests = PoissonArrivals(rate, seed=42).generate(20000)
        fleet = ChipFleet(FixedServiceModel(service), num_chips=1)
        report = ServingSimulator(fleet, NO_BATCHING).run(requests)
        # independent integration of N(t) over the run from the raw records
        events = []
        for r in report.requests:
            events.append((r.arrival_s, +1))
            events.append((r.completion_s, -1))
        events.sort()
        t0 = events[0][0]
        occupancy_integral, level, prev = 0.0, 0, t0
        for time, delta in events:
            occupancy_integral += level * (time - prev)
            level += delta
            prev = time
        window = prev - t0
        mean_in_system = occupancy_integral / window
        # Little's law against the *offered* rate holds only statistically
        assert mean_in_system == pytest.approx(rate * report.mean_latency_s, rel=0.05)


# fault-free FIFO with a wait timer, on the global queue or on per-chip
# queues with free stealing: every chip can serve every queued request.
# "grid" traffic puts arrivals, services and timeouts on one 0.5 ms grid,
# so completions, arrivals and maturity timers fall on the same instants.
conserving_scenarios = st.fixed_dictionaries(
    {
        "num_requests": st.integers(min_value=1, max_value=300),
        "traffic": st.sampled_from(["poisson", "grid"]),
        "rate_rps": st.floats(min_value=100.0, max_value=5000.0),
        "service_s": st.sampled_from([5e-4, 1e-3, 2e-3]),
        "num_chips": st.integers(min_value=1, max_value=4),
        "max_batch": st.integers(min_value=1, max_value=8),
        "max_wait_s": st.sampled_from([5e-4, 1e-3, 2e-3]),
        "topology": st.sampled_from(
            ["global", "shortest_expected_delay", "join_shortest_queue"]
        ),
        "seed": st.integers(min_value=0, max_value=2**16),
    }
)


def conserving_run(params):
    count = params["num_requests"]
    if params["traffic"] == "grid":
        slots = np.sort(np.random.default_rng(params["seed"]).integers(0, count, count))
        requests = [
            Request(index=i, arrival_s=float(slot) * 5e-4, seq_len=128)
            for i, slot in enumerate(slots.tolist())
        ]
    else:
        requests = PoissonArrivals(
            params["rate_rps"], seq_len=128, seed=params["seed"]
        ).generate(count)
    router = None
    if params["topology"] != "global":
        router = Router(params["topology"], NetworkModel(0.0, 0.0), stealing=True)
    simulator = ServingSimulator(
        ChipFleet(FixedServiceModel(params["service_s"]), num_chips=params["num_chips"]),
        DynamicBatcher(max_batch_size=params["max_batch"], max_wait_s=params["max_wait_s"]),
        router=router,
    )
    return simulator.run(requests)


def idle_while_matured(report, max_wait_s: float) -> int:
    """(idle gap, request) pairs where a chip idles while a matured request waits.

    A chip's idle gaps run from each batch's completion to its next
    dispatch, plus the time before its first batch and after its last; a
    request waits matured over ``(arrival_s + max_wait_s, dispatch_s)``.
    """
    requests, batches = report.requests, report.batches
    mature_s = requests.arrival_s + max_wait_s
    late = requests.dispatch_s > mature_s
    waited_from, waited_to = mature_s[late], requests.dispatch_s[late]
    pairs = 0
    for chip in range(report.num_chips):
        on_chip = batches.chip == chip
        # batches on one chip never overlap, so both columns sort alike
        idle_from = np.concatenate(([-np.inf], np.sort(batches.completion_s[on_chip])))
        idle_to = np.concatenate((np.sort(batches.dispatch_s[on_chip]), [np.inf]))
        overlap = np.maximum(waited_from, idle_from[:, None]) < np.minimum(
            waited_to, idle_to[:, None]
        )
        pairs += int(np.count_nonzero(overlap))
    return pairs


class TestWorkConservation:
    @given(conserving_scenarios)
    @example(
        # at 31.5 ms two chips free as request 58's timer fires; its forced
        # sweep first releases request 57 (mature since 31 ms), and must
        # still force request 58, whose (arrival + max_wait) - arrival
        # rounds below max_wait, rather than leave it beside an idle chip
        {
            "num_requests": 176,
            "traffic": "grid",
            "rate_rps": 1000.0,
            "service_s": 1e-3,
            "num_chips": 3,
            "max_batch": 3,
            "max_wait_s": 2e-3,
            "topology": "shortest_expected_delay",
            "seed": 62092,
        }
    )
    @settings(max_examples=60, deadline=None)
    def test_no_chip_idles_while_a_matured_request_waits(self, params):
        """A request past its wait timer never waits while some chip is idle."""
        report = conserving_run(params)
        assert report.num_requests == params["num_requests"]
        assert idle_while_matured(report, params["max_wait_s"]) == 0


class TestMD1CrossValidation:
    """The serving acceptance criterion: P-K mean wait within 5%."""

    @pytest.mark.parametrize("utilization", (0.3, 0.5, 0.7))
    def test_mean_wait_matches_pollaczek_khinchine(self, utilization):
        service = 1e-3
        rate = utilization / service
        requests = PoissonArrivals(rate, seed=7).generate(30000)
        fleet = ChipFleet(FixedServiceModel(service), num_chips=1)
        report = ServingSimulator(fleet, NO_BATCHING).run(requests)
        theory = MD1Queue(arrival_rate_rps=rate, service_s=service)
        assert report.mean_wait_s == pytest.approx(theory.mean_wait_s, rel=0.05)
        # and the server is exactly as busy as the offered load says
        assert report.mean_utilization == pytest.approx(utilization, rel=0.05)

    def test_deterministic_service_beats_mm1(self):
        """The simulated M/D/1 wait sits near half the M/M/1 wait."""
        service = 1e-3
        rate = 0.7 / service
        requests = PoissonArrivals(rate, seed=3).generate(30000)
        report = ServingSimulator(
            ChipFleet(FixedServiceModel(service), num_chips=1), NO_BATCHING
        ).run(requests)
        md1 = MD1Queue(rate, service)
        mm1 = MM1Queue(rate, service)
        assert mm1.mean_wait_s == pytest.approx(2 * md1.mean_wait_s, rel=1e-12)
        assert report.mean_wait_s < 0.75 * mm1.mean_wait_s

    def test_unstable_queue_rejected(self):
        with pytest.raises(ValueError):
            MD1Queue(arrival_rate_rps=1001.0, service_s=1e-3)
        with pytest.raises(ValueError):
            MM1Queue(arrival_rate_rps=0.0, service_s=1e-3)

    def test_littles_law_identities(self):
        queue = MD1Queue(arrival_rate_rps=500.0, service_s=1e-3)
        assert queue.utilization == pytest.approx(0.5)
        assert queue.mean_latency_s == pytest.approx(
            queue.mean_wait_s + queue.service_s
        )
