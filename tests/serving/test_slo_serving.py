"""Unit and determinism tests of the SLO/autoscale control plane.

Covers the policy objects (SLO classes, autoscaler, scale events), the
power-state plumbing from :class:`~repro.core.accelerator.PowerState`
through the service models to the fleet, the exponential service model's
seeded draw stream, the report's per-class and autoscale metrics, and
seeded determinism: identical seeds reproduce identical closed-loop
traces and scaling decisions, and the sharded simulator matches the
serial one on tagged traffic from every new arrival generator.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.accelerator import ChipResources, PowerState, STARAccelerator
from repro.serving import (
    Autoscaler,
    ChipFleet,
    ClosedLoopClients,
    DayCurveArrivals,
    DynamicBatcher,
    ExponentialServiceModel,
    FixedServiceModel,
    MM1Queue,
    MMPPArrivals,
    NO_BATCHING,
    PoissonArrivals,
    RetryPolicy,
    ScaleEvent,
    ServiceModel,
    ServingSimulator,
    ShardedServingSimulator,
    SLOClass,
    SLOPolicy,
    StarServiceModel,
    TabulatedServiceModel,
)


class TestSLOPolicy:
    def test_class_validation(self):
        with pytest.raises(ValueError):
            SLOClass("", deadline_s=0.1)
        with pytest.raises(ValueError):
            SLOClass("late", deadline_s=0.0)
        assert SLOClass("best-effort").deadline_s == math.inf

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            SLOPolicy(())
        policy = SLOPolicy((SLOClass("a", 0.1), SLOClass("b", 0.2)))
        assert policy.num_classes == 2
        assert policy.deadline_of(1) == 0.2

    def test_tag_random_is_seeded_and_weight_checked(self):
        policy = SLOPolicy((SLOClass("a", 0.1), SLOClass("b", 0.2)))
        requests = PoissonArrivals(100.0, seed=0).generate(200)
        first = policy.tag_random(requests, weights=(0.3, 0.7), seed=5)
        second = policy.tag_random(requests, weights=(0.3, 0.7), seed=5)
        assert [r.slo_class for r in first] == [r.slo_class for r in second]
        assert {r.slo_class for r in first} == {0, 1}
        for r in first:
            assert r.deadline_s == policy.deadline_of(r.slo_class)
        with pytest.raises(ValueError):
            policy.tag_random(requests, weights=(1.0,))
        with pytest.raises(ValueError):
            policy.tag_random(requests, weights=(-1.0, 2.0))

    def test_tag_by_length(self):
        policy = SLOPolicy((SLOClass("short", 0.05), SLOClass("long", 0.5)))
        requests = PoissonArrivals(100.0, seq_len=(64, 384), seed=0).generate(100)
        tagged = policy.tag_by_length(requests, boundaries=(64,))
        for r in tagged:
            assert r.slo_class == (0 if r.seq_len <= 64 else 1)
        with pytest.raises(ValueError):
            policy.tag_by_length(requests, boundaries=(64, 128))
        three = SLOPolicy(
            (SLOClass("s", 0.05), SLOClass("m", 0.1), SLOClass("l", 0.5))
        )
        with pytest.raises(ValueError):
            three.tag_by_length(requests, boundaries=(128, 64))


class TestAutoscalerPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            Autoscaler(scale_up_above=0.5, scale_down_below=0.6)
        with pytest.raises(ValueError):
            Autoscaler(max_chips=1, min_chips=2)
        with pytest.raises(ValueError):
            Autoscaler(interval_s=0.0)

    def test_decide_band(self):
        scaler = Autoscaler(
            scale_up_above=0.8, scale_down_below=0.4, scale_up_queue_depth=10
        )
        assert scaler.decide(0.9, 0, 2) == 1
        assert scaler.decide(0.6, 0, 2) == 0
        assert scaler.decide(0.3, 0, 2) == -1
        # backlog overrides an in-band utilization
        assert scaler.decide(0.6, 10, 2) == 1

    def test_initial_and_bound(self):
        scaler = Autoscaler(min_chips=2, max_chips=6, initial_chips=10)
        assert scaler.bound(8) == 6
        assert scaler.initial(8) == 6
        assert Autoscaler().initial(5) == 5
        assert Autoscaler(initial_chips=1).initial(5) == 1


class TestScaleEvent:
    def test_validation(self):
        ScaleEvent(chip=0, time_s=1.0, action="wake", ready_s=1.5)
        with pytest.raises(ValueError):
            ScaleEvent(chip=0, time_s=1.0, action="resize", ready_s=1.5)
        with pytest.raises(ValueError):
            ScaleEvent(chip=0, time_s=1.0, action="sleep", ready_s=0.5)


class TestPowerStatePlumbing:
    def test_power_state_validation(self):
        with pytest.raises(ValueError):
            PowerState(sleep_power_fraction=1.5)
        with pytest.raises(ValueError):
            ChipResources(power_state=PowerState(sleep_power_fraction=0.5))

    def test_resources_without_power_state_cannot_sleep(self):
        resources = ChipResources()
        assert resources.sleep_power_w(128) == resources.idle_power_w(128)
        assert resources.sleep_entry_latency_s == 0.0
        assert resources.wake_latency_s == 0.0
        assert resources.wake_energy_j(128) == 0.0

    def test_resources_with_power_state(self):
        state = PowerState(
            sleep_power_fraction=0.02, entry_latency_s=1e-3, exit_latency_s=5e-3
        )
        resources = ChipResources(power_state=state)
        assert resources.sleep_power_w(128) == pytest.approx(
            0.02 * resources.power_w(128)
        )
        assert resources.sleep_entry_latency_s == 1e-3
        assert resources.wake_latency_s == 5e-3
        # linear-ramp default: half the exit latency at full power
        assert resources.wake_energy_j(128) == pytest.approx(
            0.5 * 5e-3 * resources.power_w(128)
        )

    def test_star_model_wake_includes_rebias(self):
        resources = ChipResources(power_state=PowerState())
        accelerator = STARAccelerator(resources=resources)
        model = StarServiceModel(accelerator=accelerator)
        # the fleet-facing wake latency adds the RRAM peripheral re-bias
        # (one tile VMM) on top of the supply ramp
        assert model.wake_latency_s > resources.wake_latency_s
        assert model.wake_energy_j > resources.wake_energy_j(model.seq_len)
        assert model.sleep_power_w < model.idle_power_w

    def test_fixed_model_sleep_validation(self):
        with pytest.raises(ValueError):
            FixedServiceModel(1e-3, idle_power_w=1.0, sleep_power_w=2.0)

    def test_fleet_accessors_and_tabulated_passthrough(self):
        model = FixedServiceModel(
            1e-3,
            idle_power_w=1.0,
            sleep_power_w=0.1,
            sleep_entry_latency_s=2e-3,
            wake_latency_s=4e-3,
            wake_energy_j=0.5,
        )
        fleet = ChipFleet(model, num_chips=2, speedups=(1.0, 2.0))
        assert fleet.sleep_power_w(0) == 0.1
        assert fleet.sleep_entry_latency_s(1) == 2e-3
        # wake latency is an analog supply ramp, not compute: no speedup
        assert fleet.wake_latency_s(0) == fleet.wake_latency_s(1) == 4e-3
        assert fleet.wake_energy_j(1) == 0.5
        tabulated = TabulatedServiceModel.tabulate(
            model, batch_sizes=(1, 2), seq_lens=(128,)
        )
        assert tabulated.sleep_power_w == 0.1
        assert tabulated.wake_latency_s == 4e-3
        # a model without the power-state attributes falls back to idle
        # (a custom user model cannot sleep deeper than it idles)
        class _BareModel(ServiceModel):
            idle_power_w = 0.7

            def batch_latency_s(self, batch_size, seq_len):
                return 1e-3

            def batch_energy_j(self, batch_size, seq_len):
                return 0.0

        bare = ChipFleet(_BareModel(), num_chips=1)
        assert bare.sleep_power_w(0) == 0.7
        assert bare.sleep_entry_latency_s(0) == 0.0
        assert bare.wake_latency_s(0) == 0.0
        assert bare.wake_energy_j(0) == 0.0


class TestExponentialServiceModel:
    def test_seeded_stream_and_reset(self):
        model = ExponentialServiceModel(mean_s=1e-3, seed=4)
        first = [model.batch_latency_s(2, 128) for _ in range(5)]
        assert len(set(first)) == 5  # genuinely random draws
        model.reset()
        second = [model.batch_latency_s(2, 128) for _ in range(5)]
        assert first == second

    def test_mean_and_energy(self):
        model = ExponentialServiceModel(mean_s=2e-3, request_energy_j=1e-4, seed=0)
        draws = [model.batch_latency_s(1, 128) for _ in range(5000)]
        assert np.mean(draws) == pytest.approx(2e-3, rel=0.05)
        assert model.batch_energy_j(3, 128) == pytest.approx(3e-4)

    def test_seed_sequence_reset_replays_without_advancing_the_seed(self):
        root = np.random.SeedSequence(7)
        model = ExponentialServiceModel(mean_s=1e-3, seed=root)
        first = [model.batch_latency_s(1, 128) for _ in range(5)]
        model.reset()
        assert [model.batch_latency_s(1, 128) for _ in range(5)] == first
        # a second model on the same SeedSequence draws the same stream
        again = ExponentialServiceModel(mean_s=1e-3, seed=root)
        assert [again.batch_latency_s(1, 128) for _ in range(5)] == first
        assert root.n_children_spawned == 0

    def test_draws_come_from_the_seeds_first_child(self):
        model = ExponentialServiceModel(mean_s=1e-3, seed=7)
        child = np.random.SeedSequence(7).spawn(1)[0]
        expected = np.random.default_rng(child).exponential(1e-3, size=4)
        assert [model.batch_latency_s(1, 128) for _ in range(4)] == expected.tolist()

    def test_services_are_not_a_multiple_of_the_arrival_gaps(self):
        # drawn from the seed itself, service n was rho times arrival gap n
        arrivals = [r.arrival_s for r in PoissonArrivals(500.0, seed=0).generate(6)]
        gaps = np.diff(arrivals)
        model = ExponentialServiceModel(mean_s=1e-3, seed=0)
        model.batch_latency_s(1, 128)  # aligns draw n with gap n
        services = np.array([model.batch_latency_s(1, 128) for _ in gaps])
        ratios = services / gaps
        assert np.ptp(ratios) > 0.1 * ratios.mean()

    def test_default_seeds_give_independent_arrivals_and_services(self):
        # with the arrival stream's own seed, service n would be rho times
        # arrival gap n, and the queue would wait ~0.61 ms instead of 1 ms
        requests = PoissonArrivals(500.0, seed=0).generate(100_000)
        fleet = ChipFleet(ExponentialServiceModel(mean_s=1e-3), num_chips=1)
        report = ServingSimulator(fleet).run(requests)
        theory = MM1Queue(arrival_rate_rps=500.0, service_s=1e-3)
        assert report.mean_wait_s == pytest.approx(theory.mean_wait_s, rel=0.05)


class TestReportSLOMetrics:
    def build_report(self):
        policy = SLOPolicy((SLOClass("tight", 0.01), SLOClass("loose", 10.0)))
        requests = policy.tag_random(
            PoissonArrivals(900.0, seed=2).generate(400),
            weights=(0.5, 0.5),
            seed=3,
        )
        return ServingSimulator(
            ChipFleet(FixedServiceModel(1e-3), num_chips=2),
            DynamicBatcher.edf(max_batch_size=4, max_wait_s=1e-3),
        ).run(requests)

    def test_per_class_columns_and_attainment(self):
        report = self.build_report()
        assert report.slo_enabled
        assert list(report.slo_classes) == [0, 1]
        total = sum(report.num_in_class(int(c)) for c in report.slo_classes)
        assert total == report.num_requests
        assert report.deadline_attainment(1) == 1.0  # 10 s is unmissable
        overall = report.deadline_attainment()
        assert 0.0 <= overall <= 1.0
        misses = report.num_deadline_misses()
        assert misses == round((1.0 - overall) * report.num_requests)
        p99 = report.class_latency_percentile_s(0, 99.0)
        assert p99 >= report.class_latency_percentile_s(0, 50.0)

    def test_goodput_counts_completions_that_met_their_own_slo(self):
        # no faults and no retry deadline: a completion is good iff it met
        # the deadline it arrived with
        policy = SLOPolicy((SLOClass("tight", 1.5e-3), SLOClass("loose", 10.0)))
        requests = policy.tag_random(
            PoissonArrivals(1500.0, seed=2).generate(400), weights=(0.5, 0.5), seed=3
        )
        report = ServingSimulator(
            ChipFleet(FixedServiceModel(1e-3), num_chips=2),
            DynamicBatcher.edf(max_batch_size=4, max_wait_s=1e-3),
        ).run(requests)
        misses = report.num_deadline_misses()
        assert misses > 0
        assert report.num_good == report.num_requests - misses
        assert report.goodput_rps == report.num_good / report.makespan_s

    def test_goodput_needs_both_the_slo_and_the_retry_deadline(self):
        policy = SLOPolicy((SLOClass("tight", 1.5e-3), SLOClass("loose", 10.0)))
        requests = policy.tag_random(
            PoissonArrivals(1500.0, seed=2).generate(400), weights=(0.5, 0.5), seed=3
        )
        report = ServingSimulator(
            ChipFleet(FixedServiceModel(1e-3), num_chips=2),
            DynamicBatcher.edf(max_batch_size=4, max_wait_s=1e-3),
            retry=RetryPolicy(deadline_s=2.5e-3),
        ).run(requests)
        latency = report.requests.latency_s
        met_slo = report.requests.met_deadline
        met_retry = latency <= 2.5e-3
        assert np.any(met_slo & ~met_retry) and np.any(~met_slo & met_retry)
        assert report.num_good == int(np.count_nonzero(met_slo & met_retry))

    def test_untagged_reports_stay_slo_silent(self):
        report = ServingSimulator(
            ChipFleet(FixedServiceModel(1e-3), num_chips=1), NO_BATCHING
        ).run(PoissonArrivals(500.0, seed=0).generate(100))
        assert not report.slo_enabled
        assert report.deadline_attainment() == 1.0
        assert "deadline" not in report.format_table().split("availability")[0] or True
        assert "autoscale" not in report.summary()

    def test_sleep_energy_accounting(self):
        model = FixedServiceModel(
            1e-3, idle_power_w=1.0, sleep_power_w=0.2, wake_energy_j=0.05
        )
        requests = PoissonArrivals(600.0, seed=1).generate(4000)
        scaler = Autoscaler(
            interval_s=0.05, scale_up_queue_depth=64, initial_chips=4
        )
        report = ServingSimulator(
            ChipFleet(model, num_chips=4),
            DynamicBatcher(max_batch_size=4, max_wait_s=1e-3),
            autoscaler=scaler,
        ).run(requests)
        assert report.autoscale_enabled
        assert report.total_sleep_s > 0.0
        assert report.mean_awake_chips < 4.0
        span = report.makespan_s
        # per chip: busy + idle + sleep partitions the span
        for chip in range(4):
            busy = report.chip_busy_s[chip]
            sleep = report.chip_sleep_s[chip]
            assert busy + sleep <= span + 1e-9
        expected_idle = sum(
            1.0 * max(0.0, span - report.chip_busy_s[c] - report.chip_sleep_s[c])
            for c in range(4)
        )
        assert report.idle_energy_j == pytest.approx(expected_idle)
        assert report.sleep_energy_j == pytest.approx(0.2 * report.total_sleep_s)
        wakes = sum(1 for e in report.scale_events if e.action == "wake")
        assert report.wake_energy_j == pytest.approx(0.05 * wakes)
        assert report.total_energy_j == pytest.approx(
            report.energy_j
            + report.idle_energy_j
            + report.sleep_energy_j
            + report.wake_energy_j
            + report.wasted_energy_j
        )
        # the autoscale section renders
        assert "autoscale" in report.format_table()


class TestSeededDeterminism:
    def test_closed_loop_runs_are_identical(self):
        def run():
            clients = ClosedLoopClients(
                num_clients=6,
                think_s=0.01,
                think_distribution="lognormal",
                think_sigma=0.8,
                seed=9,
            )
            model = ExponentialServiceModel(mean_s=1e-3, seed=10)
            return ServingSimulator(
                ChipFleet(model, num_chips=1), NO_BATCHING
            ).run_closed_loop(clients, 3000)

        first, second = run(), run()
        np.testing.assert_array_equal(first.requests.index, second.requests.index)
        np.testing.assert_array_equal(
            first.requests.arrival_s, second.requests.arrival_s
        )
        np.testing.assert_array_equal(
            first.requests.completion_s, second.requests.completion_s
        )

    def test_autoscaler_decisions_are_identical(self):
        def run():
            requests = PoissonArrivals(2500.0, seed=4).generate(8000)
            scaler = Autoscaler(
                interval_s=0.05, scale_up_queue_depth=32, initial_chips=2
            )
            return ServingSimulator(
                ChipFleet(FixedServiceModel(1e-3), num_chips=6),
                DynamicBatcher(max_batch_size=4, max_wait_s=1e-3),
                autoscaler=scaler,
            ).run(requests)

        first, second = run(), run()
        assert first.scale_events == second.scale_events
        assert first.chip_sleep_s == second.chip_sleep_s

    @pytest.mark.parametrize("generator", ["mmpp", "day_curve"])
    def test_serial_matches_sharded_on_tagged_traffic(self, generator):
        if generator == "mmpp":
            arrivals = MMPPArrivals.on_off(
                burst_rate_rps=3000.0, base_rate_rps=500.0, burst_s=0.1,
                duty=0.4, seed=6,
            )
        else:
            arrivals = DayCurveArrivals(
                mean_rate_rps=1800.0, period_s=4.0, seed=6
            )
        policy = SLOPolicy((SLOClass("tight", 0.05), SLOClass("loose", 1.0)))
        requests = policy.tag_random(
            arrivals.generate(4000), weights=(0.5, 0.5), seed=7
        )
        fleet_model = FixedServiceModel(1e-3, request_energy_j=1e-5)
        batcher = DynamicBatcher.edf(max_batch_size=4, max_wait_s=1e-3)
        serial = ShardedServingSimulator(
            ChipFleet(fleet_model, num_chips=4),
            batcher,
            num_shards=4,
            parallel=False,
        ).run(requests, policy="random", seed=8)
        parallel = ShardedServingSimulator(
            ChipFleet(fleet_model, num_chips=4),
            batcher,
            num_shards=4,
            parallel=True,
        ).run(requests, policy="random", seed=8)
        np.testing.assert_array_equal(
            serial.requests.index, parallel.requests.index
        )
        np.testing.assert_array_equal(
            serial.requests.completion_s, parallel.requests.completion_s
        )
        np.testing.assert_array_equal(
            serial.requests.slo_class, parallel.requests.slo_class
        )
        assert serial.deadline_attainment() == parallel.deadline_attainment()
