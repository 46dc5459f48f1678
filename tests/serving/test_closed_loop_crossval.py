"""Control-plane cross-validation against closed queueing theory.

Three closed forms pin the new serving control plane:

* the closed-loop client population on one exponential-service chip is
  exactly the machine-repair M/M/1//N queue — simulated throughput and
  mean response time must land on the product-form solution;
* the MMPP arrival generator's long-run mean rate must match
  ``pi . rates`` of its generator matrix's stationary distribution;
* the hysteresis autoscaler at deterministic service has a unique fleet
  size whose utilization falls inside the band — the steady state must
  settle there whatever fleet it starts from.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.serving import (
    Autoscaler,
    ChipFleet,
    ClosedLoopClients,
    DynamicBatcher,
    ExponentialServiceModel,
    FixedServiceModel,
    MachineRepairQueue,
    MMPPArrivals,
    NO_BATCHING,
    PoissonArrivals,
    ServingSimulator,
)


class TestClosedLoopVsMachineRepair:
    def run_closed_loop(self, num_clients, think_s, service_s, num_requests, seed=0):
        clients = ClosedLoopClients(
            num_clients=num_clients, think_s=think_s, seed=seed
        )
        model = ExponentialServiceModel(mean_s=service_s, seed=seed + 1)
        simulator = ServingSimulator(ChipFleet(model, num_chips=1), NO_BATCHING)
        return simulator.run_closed_loop(clients, num_requests)

    @pytest.mark.parametrize("num_clients", [4, 8, 16])
    def test_throughput_and_response_match_theory(self, num_clients):
        """X and R land within 5% of the M/M/1//N product form."""
        think_s, service_s = 0.010, 0.001
        report = self.run_closed_loop(num_clients, think_s, service_s, 40000)
        theory = MachineRepairQueue(
            num_clients=num_clients, think_s=think_s, service_s=service_s
        )
        assert report.throughput_rps == pytest.approx(
            theory.throughput_rps, rel=0.05
        )
        assert report.mean_latency_s == pytest.approx(
            theory.mean_latency_s, rel=0.05
        )

    def test_saturated_population_hits_the_service_bottleneck(self):
        """Many clients with little think time drive X to 1/s."""
        think_s, service_s = 0.001, 0.002
        report = self.run_closed_loop(32, think_s, service_s, 40000)
        theory = MachineRepairQueue(
            num_clients=32, think_s=think_s, service_s=service_s
        )
        assert theory.utilization > 0.99
        assert report.throughput_rps == pytest.approx(1.0 / service_s, rel=0.05)

    def test_outstanding_requests_never_exceed_population(self):
        """A closed loop can never have more requests in flight than clients."""
        num_clients = 6
        report = self.run_closed_loop(num_clients, 0.005, 0.001, 5000)
        events = sorted(
            [(r.arrival_s, 1) for r in report.requests]
            + [(r.completion_s, -1) for r in report.requests]
        )
        in_flight = peak = 0
        for _, delta in events:
            in_flight += delta
            peak = max(peak, in_flight)
        assert peak <= num_clients

    def test_littles_law_on_the_closed_loop(self):
        """N = X * (R + Z) across the whole population at steady state."""
        num_clients, think_s = 8, 0.010
        report = self.run_closed_loop(num_clients, think_s, 0.001, 40000)
        implied = report.throughput_rps * (report.mean_latency_s + think_s)
        assert implied == pytest.approx(num_clients, rel=0.05)


class TestMMPPRate:
    def test_mean_rate_matches_generator_matrix(self):
        """The generated stream's long-run rate is pi . rates within 2%."""
        arrivals = MMPPArrivals(
            rates_rps=(900.0, 150.0, 420.0),
            transitions=(
                (-4.0, 3.0, 1.0),
                (2.0, -5.0, 3.0),
                (1.5, 2.5, -4.0),
            ),
            seed=11,
        )
        requests = arrivals.generate(200_000)
        measured = (len(requests) - 1) / (
            requests[-1].arrival_s - requests[0].arrival_s
        )
        assert measured == pytest.approx(arrivals.mean_rate_rps, rel=0.02)

    def test_on_off_mean_rate(self):
        """The on/off classmethod keeps the duty-weighted mean exact."""
        arrivals = MMPPArrivals.on_off(
            burst_rate_rps=2000.0, base_rate_rps=200.0, burst_s=0.05, duty=0.25,
            seed=5,
        )
        assert arrivals.mean_rate_rps == pytest.approx(
            0.25 * 2000.0 + 0.75 * 200.0
        )
        # burstiness inflates the rate-estimator variance, so the empirical
        # check needs more arrivals and a little more slack than Poisson
        requests = arrivals.generate(300_000)
        measured = (len(requests) - 1) / (
            requests[-1].arrival_s - requests[0].arrival_s
        )
        assert measured == pytest.approx(arrivals.mean_rate_rps, rel=0.03)


class TestAutoscalerFixedPoint:
    def run_autoscaled(self, initial_chips):
        """Deterministic-service fleet with a unique in-band fleet size."""
        # lambda * s = 2.8 busy chips: utilization 0.70 at 4 awake chips is
        # the only value inside the (0.55, 0.85) band
        rate, service = 2800.0, 1e-3
        requests = PoissonArrivals(rate, seq_len=128, seed=3).generate(30000)
        scaler = Autoscaler(
            interval_s=0.05,
            scale_up_above=0.85,
            scale_down_below=0.55,
            scale_up_queue_depth=64,
            min_chips=1,
            initial_chips=initial_chips,
        )
        simulator = ServingSimulator(
            ChipFleet(FixedServiceModel(service), num_chips=8),
            DynamicBatcher(max_batch_size=4, max_wait_s=1e-3),
            autoscaler=scaler,
        )
        return simulator.run(requests)

    @pytest.mark.parametrize("initial_chips", [1, 4, 8])
    def test_settles_at_the_unique_in_band_fleet_size(self, initial_chips):
        """Whatever the starting fleet, steady state is 4 awake chips."""
        report = self.run_autoscaled(initial_chips)
        # mean over the whole run includes the transient; half a chip of
        # slack around the fixed point absorbs it
        assert report.mean_awake_chips == pytest.approx(4.0, abs=0.5)

    def test_scaling_actually_happened_from_the_wrong_size(self):
        """Starting far from the fixed point produces scale transitions."""
        report = self.run_autoscaled(8)
        assert report.autoscale_enabled
        assert report.num_scale_events > 0
        assert report.total_sleep_s > 0.0

    def test_wake_events_pay_the_transition(self):
        """Every wake event carries the fleet's wake latency and energy."""
        model = FixedServiceModel(
            1e-3,
            idle_power_w=1.0,
            sleep_power_w=0.05,
            sleep_entry_latency_s=1e-3,
            wake_latency_s=5e-3,
            wake_energy_j=0.02,
        )
        requests = PoissonArrivals(2800.0, seq_len=128, seed=3).generate(20000)
        scaler = Autoscaler(
            interval_s=0.05, scale_up_queue_depth=64, initial_chips=1
        )
        report = ServingSimulator(
            ChipFleet(model, num_chips=8),
            DynamicBatcher(max_batch_size=4, max_wait_s=1e-3),
            autoscaler=scaler,
        ).run(requests)
        wakes = [e for e in report.scale_events if e.action == "wake"]
        assert wakes, "cold start from 1 chip must wake chips"
        for event in wakes:
            assert event.ready_s - event.time_s == pytest.approx(5e-3)
            assert event.energy_j == pytest.approx(0.02)
        assert report.wake_energy_j == pytest.approx(0.02 * len(wakes))
