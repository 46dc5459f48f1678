"""Unit tests of the fault machinery and its satellite fixes.

Covers the policy objects (retry backoff, admission control, the
MTBF/MTTR injector and its capacity-loss solver), the physically grounded
repair cost, input validation of the arrival layer (non-finite and
negative inputs rejected with the offending index named), RNG-stream
isolation (fault draws never perturb arrival traces), and the healthy
path's bit-identity when no fault component is configured.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.serving import (
    AdmissionController,
    ChipFleet,
    DynamicBatcher,
    FaultInjector,
    FixedServiceModel,
    NO_ADMISSION,
    PoissonArrivals,
    Request,
    RetryPolicy,
    ServingSimulator,
    StarServiceModel,
    TraceArrivals,
)
from repro.serving.report import DropRecord


class TestRetryPolicy:
    def test_nominal_backoff_is_exponential_and_monotone(self):
        policy = RetryPolicy(backoff_base_s=1e-3, backoff_multiplier=2.0)
        assert policy.nominal_backoff_s(1) == pytest.approx(1e-3)
        assert policy.nominal_backoff_s(2) == pytest.approx(2e-3)
        assert policy.nominal_backoff_s(3) == pytest.approx(4e-3)
        backoffs = [policy.nominal_backoff_s(a) for a in range(1, 8)]
        assert backoffs == sorted(backoffs)

    def test_constant_backoff_with_unit_multiplier(self):
        policy = RetryPolicy(backoff_base_s=5e-4, backoff_multiplier=1.0)
        assert policy.nominal_backoff_s(5) == pytest.approx(5e-4)

    def test_jitter_envelope_and_determinism(self):
        policy = RetryPolicy(backoff_base_s=1e-3, jitter=0.25)
        rng = np.random.default_rng(0)
        draws = [policy.backoff_s(1, rng) for _ in range(200)]
        assert all(0.75e-3 <= d <= 1.25e-3 for d in draws)
        again = [policy.backoff_s(1, np.random.default_rng(0)) for _ in range(1)]
        assert again[0] == draws[0]
        # no rng (or zero jitter) means the nominal value exactly
        assert policy.backoff_s(2, None) == policy.nominal_backoff_s(2)
        assert RetryPolicy(jitter=0.0).backoff_s(1, rng) == pytest.approx(1e-3)

    def test_deadline_of(self):
        assert RetryPolicy(deadline_s=None).deadline_of(3.0) == float("inf")
        assert RetryPolicy(deadline_s=0.25).deadline_of(3.0) == pytest.approx(3.25)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=-0.1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_base_s=float("nan"))
        with pytest.raises(ValueError):
            RetryPolicy(deadline_s=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_multiplier=0.0)


class TestAdmissionController:
    def test_bounded_queue_admits(self):
        # the loop admits an arrival while fewer than max_queue_depth
        # requests are queued and sheds it at the bound
        fleet = ChipFleet(FixedServiceModel(1.0), num_chips=1)
        arrivals = [0.0] * 5 + [0.5, 0.6]
        requests = [Request(index=i, arrival_s=t, seq_len=128) for i, t in enumerate(arrivals)]
        simulator = ServingSimulator(fleet, admission=AdmissionController(max_queue_depth=3))
        report = simulator.run(requests)
        # t=0 queues three of five; at t=0.5 one has been dispatched
        assert sorted(report.requests.index.tolist()) == [0, 1, 2, 5]
        assert [(d.index, d.reason) for d in report.shed] == [
            (3, "queue_full"), (4, "queue_full"), (6, "queue_full")
        ]

    def test_unbounded_admits_everything(self):
        assert NO_ADMISSION.max_queue_depth is None
        assert not NO_ADMISSION.shed_expired

    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionController(max_queue_depth=0)
        with pytest.raises(ValueError):
            AdmissionController(degraded_max_batch=0)


class TestFaultInjector:
    def test_availability_and_downtime(self):
        injector = FaultInjector(mtbf_s=0.9, detection_s=0.05, repair_s=0.05)
        assert injector.mean_downtime_s(123.0) == pytest.approx(0.1)  # override wins
        assert injector.steady_state_availability(0.0) == pytest.approx(0.9)
        derived = FaultInjector(mtbf_s=0.9, detection_s=0.05)
        assert derived.mean_downtime_s(0.05) == pytest.approx(0.1)

    def test_for_capacity_loss_solves_the_availability_equation(self):
        for loss in (0.05, 0.1, 0.2):
            injector = FaultInjector.for_capacity_loss(
                loss, repair_s=4e-3, detection_s=0.05
            )
            assert 1.0 - injector.steady_state_availability(4e-3) == pytest.approx(loss)

    @pytest.mark.parametrize("loss", [0.05, 0.10, 0.20])
    def test_long_run_availability_is_one_minus_loss(self, loss):
        # renewal-reward: each chip alternates exponential up times (mean
        # mtbf) with fixed downtimes d, so its long-run down fraction is
        # d / (mtbf + d) = loss; over n cycles the estimate's standard error
        # is loss (1 - loss) / sqrt(n) (delta method on the mean up time).
        # The chips reprogram in zero time, so every failure must last the
        # detection plus the repair the injector was solved for.
        faults = FaultInjector.for_capacity_loss(
            loss, repair_s=25e-3, detection_s=25e-3, seed=3
        )
        requests = PoissonArrivals(50.0, seq_len=128, seed=0).generate(20_000)
        report = ServingSimulator(
            ChipFleet(FixedServiceModel(1e-3), num_chips=2), DynamicBatcher(), faults=faults
        ).run(requests)
        cycles = len(report.failures)
        standard_error = loss * (1.0 - loss) / np.sqrt(cycles)
        assert cycles > 500
        assert abs(report.fleet_availability - (1.0 - loss)) <= 4.0 * standard_error

    def test_for_capacity_loss_validation(self):
        with pytest.raises(ValueError):
            FaultInjector.for_capacity_loss(0.0, repair_s=1e-3)
        with pytest.raises(ValueError):
            FaultInjector.for_capacity_loss(1.0, repair_s=1e-3)
        with pytest.raises(ValueError):
            FaultInjector.for_capacity_loss(0.1, repair_s=0.0, detection_s=0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultInjector(mtbf_s=0.0)
        with pytest.raises(ValueError):
            FaultInjector(mtbf_s=float("inf"))
        with pytest.raises(ValueError):
            FaultInjector(mtbf_s=1.0, detection_s=-1.0)
        with pytest.raises(ValueError):
            FaultInjector(mtbf_s=1.0, repair_s=float("nan"))

    def test_session_streams_are_reproducible_and_independent(self):
        injector = FaultInjector(mtbf_s=1.0, seed=42)
        a = injector.session(3)
        b = injector.session(3)
        assert [a.time_to_failure_s(c) for c in range(3)] == [
            b.time_to_failure_s(c) for c in range(3)
        ]
        # adding a chip never reshuffles existing chips' draws
        wide = injector.session(4)
        narrow = injector.session(3)
        assert [wide.time_to_failure_s(c) for c in range(3)] == [
            narrow.time_to_failure_s(c) for c in range(3)
        ]
        # per-chip streams differ from each other
        fresh = injector.session(2)
        assert fresh.time_to_failure_s(0) != fresh.time_to_failure_s(1)


class TestRepairCost:
    def test_star_repair_is_the_full_model_reprogram(self):
        model = StarServiceModel()
        workload = model._base_workload
        per_layer = model.batch_cost.maintenance_reprogram_latency_s(
            model.accelerator.matmul_engine, workload.weight_operand_shapes_per_layer()
        )
        expected = workload.config.num_layers * per_layer
        assert expected > 0.0
        assert model.reprogram_latency_s == pytest.approx(expected)

    def test_fleet_scales_repair_by_chip_speedup(self):
        model = FixedServiceModel(1e-3, reprogram_latency_s=4e-3)
        fleet = ChipFleet(model, num_chips=2, speedups=(1.0, 2.0))
        assert fleet.reprogram_latency_s(0) == pytest.approx(4e-3)
        assert fleet.reprogram_latency_s(1) == pytest.approx(2e-3)

    def test_fixed_model_defaults_to_zero_repair(self):
        fleet = ChipFleet(FixedServiceModel(1e-3), num_chips=1)
        assert fleet.reprogram_latency_s(0) == 0.0

    def test_reprogram_validation(self):
        with pytest.raises(ValueError):
            FixedServiceModel(1e-3, reprogram_latency_s=-1.0)


class TestArrivalValidation:
    """Satellite fix: malformed traffic fails fast with the index named."""

    def test_request_rejects_non_finite_and_negative(self):
        with pytest.raises(ValueError, match="arrival_s must be finite"):
            Request(index=0, arrival_s=float("nan"), seq_len=128)
        with pytest.raises(ValueError, match="arrival_s"):
            Request(index=0, arrival_s=-1.0, seq_len=128)
        with pytest.raises(ValueError, match="seq_len"):
            Request(index=0, arrival_s=0.0, seq_len=0)

    def test_poisson_rejects_bad_rate(self):
        with pytest.raises(ValueError, match="rate_rps"):
            PoissonArrivals(rate_rps=float("inf"))
        with pytest.raises(ValueError, match="rate_rps"):
            PoissonArrivals(rate_rps=0.0)

    def test_trace_rejects_non_finite_times_with_index(self):
        with pytest.raises(ValueError, match="at index 2"):
            TraceArrivals([0.0, 1.0, float("nan"), 3.0])
        with pytest.raises(ValueError, match="at index 1"):
            TraceArrivals([0.0, float("inf")])

    def test_trace_rejects_negative_and_decreasing_with_index(self):
        with pytest.raises(ValueError, match="non-negative.*at index 0"):
            TraceArrivals([-1.0, 1.0])
        with pytest.raises(ValueError, match="non-decreasing.*at index 2"):
            TraceArrivals([0.0, 2.0, 1.0])

    def test_trace_rejects_bad_per_request_lens_with_index(self):
        with pytest.raises(ValueError, match="per_request_lens.*at index 1"):
            TraceArrivals([0.0, 1.0], per_request_lens=[128, -4])
        with pytest.raises(ValueError, match="per_request_lens must be finite"):
            TraceArrivals([0.0, 1.0], per_request_lens=[128, float("nan")])
        with pytest.raises(ValueError, match="2 entries for 3"):
            TraceArrivals([0.0, 1.0, 2.0], per_request_lens=[128, 128])


class TestRngIsolation:
    """Satellite fix: fault streams never perturb arrival streams."""

    def test_arrival_trace_identical_with_and_without_faults(self):
        arrivals = PoissonArrivals(rate_rps=800.0, seq_len=128, seed=9)
        trace_a = arrivals.generate(500)
        trace_b = arrivals.generate(500)
        assert [(r.arrival_s, r.seq_len) for r in trace_a] == [
            (r.arrival_s, r.seq_len) for r in trace_b
        ]
        fleet = ChipFleet(
            FixedServiceModel(1e-3, reprogram_latency_s=1e-3), num_chips=2
        )
        batcher = DynamicBatcher(max_batch_size=4, max_wait_s=1e-3)
        healthy = ServingSimulator(fleet, batcher).run(trace_a)
        faulty = ServingSimulator(
            fleet,
            batcher,
            faults=FaultInjector(mtbf_s=0.05, detection_s=1e-3, seed=5),
            retry=RetryPolicy(max_attempts=3, jitter=0.3),
        ).run(trace_b)
        # the offered traffic (arrival timestamps) is identical either way
        healthy_arrivals = sorted(r.arrival_s for r in healthy.requests)
        faulty_arrivals = sorted(
            [r.arrival_s for r in faulty.requests]
            + [trace_b[d.index].arrival_s for d in faulty.shed]
            + [trace_b[d.index].arrival_s for d in faulty.abandoned]
        )
        assert healthy_arrivals == faulty_arrivals

    def test_fault_run_is_reproducible(self):
        requests = PoissonArrivals(rate_rps=800.0, seed=2).generate(400)
        fleet = ChipFleet(
            FixedServiceModel(1e-3, reprogram_latency_s=1e-3), num_chips=2
        )
        simulator = ServingSimulator(
            fleet,
            DynamicBatcher(max_batch_size=4, max_wait_s=1e-3),
            faults=FaultInjector(mtbf_s=0.05, seed=5),
            retry=RetryPolicy(max_attempts=3, jitter=0.3),
        )
        first = simulator.run(requests)
        second = simulator.run(requests)
        assert first.requests == second.requests
        assert first.failures == second.failures
        assert first.retries == second.retries
        assert first.shed == second.shed


class TestHealthyPathIdentity:
    """With no fault component the simulator output is bit-identical."""

    def test_reports_equal_without_fault_components(self):
        requests = PoissonArrivals(rate_rps=600.0, seed=4).generate(300)
        fleet = ChipFleet(FixedServiceModel(1e-3), num_chips=2)
        batcher = DynamicBatcher(max_batch_size=4, max_wait_s=1e-3)
        plain = ServingSimulator(fleet, batcher)
        assert not plain.fault_aware
        report = plain.run(requests)
        assert not report.faults_enabled
        assert report.shed == () and report.failures == ()
        # fault-format additions stay out of the healthy report surface
        assert "goodput_rps" not in report.summary()
        assert "goodput" not in report.format_table()

    def test_fault_aware_flag_set_by_any_component(self):
        fleet = ChipFleet(FixedServiceModel(1e-3), num_chips=1)
        assert ServingSimulator(fleet, retry=RetryPolicy()).fault_aware
        assert ServingSimulator(fleet, admission=NO_ADMISSION).fault_aware
        assert ServingSimulator(
            fleet, faults=FaultInjector(mtbf_s=1.0)
        ).fault_aware

    def test_fault_aware_without_injector_matches_healthy_latencies(self):
        """NO_ADMISSION + no injector must serve identical work even on
        the fault-aware code path (records differ only in ordering)."""
        requests = PoissonArrivals(rate_rps=600.0, seed=4).generate(300)
        fleet = ChipFleet(FixedServiceModel(1e-3), num_chips=2)
        batcher = DynamicBatcher(max_batch_size=4, max_wait_s=1e-3)
        healthy = ServingSimulator(fleet, batcher).run(requests)
        aware = ServingSimulator(fleet, batcher, admission=NO_ADMISSION).run(requests)
        key = lambda r: (r.index, r.arrival_s, r.dispatch_s, r.completion_s, r.chip)
        assert sorted(map(key, healthy.requests)) == sorted(map(key, aware.requests))
        assert healthy.queue_peak == aware.queue_peak
        assert healthy.chip_busy_s == pytest.approx(aware.chip_busy_s)


class TestDropRecord:
    def test_reason_validated(self):
        with pytest.raises(ValueError, match="reason"):
            DropRecord(index=0, time_s=0.0, reason="because")
        record = DropRecord(index=0, time_s=0.0, reason="queue_full")
        assert record.attempts == 0
