"""Topology-aware routing: policies, network stage, stealing, faults.

Unit coverage of :mod:`repro.serving.routing` and the surfaces it threads
through — the simulator's ``router=`` switch, the report's
:class:`RoutingStats` section and merge, the profiler's routing columns,
and the sharded variant's topology partitioning.  The statistical /
bit-identity legs live in ``test_routing_properties.py``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.schedule_cache import ScheduleTemplate
from repro.serving import (
    AdmissionController,
    ChipFleet,
    DynamicBatcher,
    ExponentialServiceModel,
    FaultInjector,
    FixedServiceModel,
    LinearServiceModel,
    NetworkModel,
    NO_BATCHING,
    PoissonArrivals,
    Request,
    RetryPolicy,
    Router,
    RoutingStats,
    ROUTING_POLICIES,
    ServiceModel,
    ServingReport,
    ServingSimulator,
    ShardedServingSimulator,
    SLOClass,
    SLOPolicy,
    StealRecord,
    TieredServiceModel,
)
from repro.serving.autoscale import Autoscaler
from repro.serving.routing import front_end


class PerTokenModel(ServiceModel):
    """Minimal length-sensitive pricing: ``batch x (base + seq_len x rate)``."""

    def __init__(self, base_s: float, per_token_s: float) -> None:
        self.base_s = base_s
        self.per_token_s = per_token_s

    def batch_latency_s(self, batch_size: int, seq_len: int) -> float:
        return batch_size * (self.base_s + seq_len * self.per_token_s)

    def batch_energy_j(self, batch_size: int, seq_len: int) -> float:
        return 0.0


def fixed_fleet(num_chips: int = 4, service_s: float = 1e-3) -> ChipFleet:
    return ChipFleet(
        FixedServiceModel(service_s, request_energy_j=1e-5, idle_power_w=0.1),
        num_chips=num_chips,
    )


def routed(
    num_chips: int = 4,
    policy: str = "shortest_expected_delay",
    network: NetworkModel = NetworkModel(),
    stealing: bool = True,
    batcher: DynamicBatcher = NO_BATCHING,
    **kwargs,
) -> ServingSimulator:
    router = Router(policy=policy, network=network, stealing=stealing)
    return ServingSimulator(fixed_fleet(num_chips), batcher, router=router, **kwargs)


class TestNetworkModel:
    def test_scalar_link_replicates(self):
        assert NetworkModel(link_latency_s=2e-6).links(3) == (2e-6,) * 3

    def test_per_link_tuple_must_match_fleet(self):
        network = NetworkModel(link_latency_s=(1e-6, 2e-6))
        assert network.links(2) == (1e-6, 2e-6)
        with pytest.raises(ValueError, match="link latencies"):
            network.links(3)

    def test_negative_latencies_rejected(self):
        with pytest.raises(ValueError):
            NetworkModel(link_latency_s=-1e-6)
        with pytest.raises(ValueError):
            NetworkModel(link_latency_s=(1e-6, -2e-6))
        with pytest.raises(ValueError):
            NetworkModel(steal_latency_s=-1e-6)

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            (dict(link_latency_s=math.inf), r"link_latency_s must be finite, got inf"),
            (dict(link_latency_s=(0.0, math.inf, 0.0)), r"link_latency_s\[1\] must be finite"),
            (dict(steal_latency_s=math.inf), r"steal_latency_s must be finite, got inf"),
            (dict(link_latency_s=-math.inf), r"link_latency_s must be non-negative, got -inf"),
            (dict(link_latency_s=(0.0, -math.inf)), r"link_latency_s\[1\] must be non-negative"),
            (dict(steal_latency_s=-math.inf), r"steal_latency_s must be non-negative, got -inf"),
            (dict(link_latency_s=(0.0, math.nan)), r"link_latency_s\[1\] must be non-negative"),
        ],
    )
    def test_non_finite_latencies_rejected_naming_the_field(self, kwargs, name):
        """An infinite link used to price every route at inf, so the router
        sent every request to the last chip and the p50 came out NaN."""
        with pytest.raises(ValueError, match=name):
            NetworkModel(**kwargs)

    def test_for_chips_slices_tuple_links(self):
        network = NetworkModel(link_latency_s=(1e-6, 2e-6, 3e-6, 4e-6))
        assert network.for_chips(slice(1, 3)).link_latency_s == (2e-6, 3e-6)
        scalar = NetworkModel(link_latency_s=5e-6)
        assert scalar.for_chips(slice(0, 2)) is scalar


class TestRouterValidation:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="policy"):
            Router(policy="by-vibes")
        assert set(ROUTING_POLICIES) == {
            "round_robin",
            "join_shortest_queue",
            "shortest_expected_delay",
        }


class TestRouterComposition:
    def test_router_composes_with_autoscaler(self):
        # the autoscaler parks only chips with no queued or inbound work,
        # so per-chip queues never strand a request on a parked chip
        fleet = ChipFleet(
            FixedServiceModel(
                1e-3, idle_power_w=0.1, sleep_power_w=0.01, wake_latency_s=1e-3
            ),
            num_chips=4,
        )
        scaler = Autoscaler(interval_s=5e-3, min_chips=1, initial_chips=1)
        simulator = ServingSimulator(
            fleet,
            autoscaler=scaler,
            router=Router(network=NetworkModel(link_latency_s=1e-5)),
        )
        report = simulator.run(PoissonArrivals(1500.0, seed=2).generate(600))
        assert report.num_requests == report.routing.num_routed == 600
        assert report.num_wakes > 0
        assert report.mean_awake_chips < 4

    def test_router_composes_with_closed_loop(self):
        from repro.serving.arrivals import ClosedLoopClients

        report = routed().run_closed_loop(
            ClosedLoopClients(num_clients=4, think_s=1e-3, seed=0), 20
        )
        assert report.routing.num_routed == 20
        assert sorted(report.requests.index.tolist()) == list(range(20))


class TestRoutingPolicies:
    def test_round_robin_interleaves_queues(self):
        simulator = routed(policy="round_robin")
        report = simulator.run(PoissonArrivals(500.0, seed=0).generate(40))
        assert report.routing is not None
        assert report.routing.policy == "round_robin"
        assert report.routing.num_routed == 40
        assert report.routing.queue_requests == (10, 10, 10, 10)

    def test_jsq_balances_queues(self):
        simulator = routed(policy="join_shortest_queue")
        report = simulator.run(PoissonArrivals(4000.0, seed=1).generate(400))
        assert report.num_requests == 400
        assert min(report.routing.queue_requests) > 0

    def test_sed_prefers_fast_chip(self):
        # chip 0 serves 4x faster: the oracle should send it most traffic
        fleet = ChipFleet(
            service_models=[
                FixedServiceModel(1e-3),
                FixedServiceModel(4e-3),
            ]
        )
        simulator = ServingSimulator(
            fleet, router=Router(policy="shortest_expected_delay", stealing=False)
        )
        report = simulator.run(PoissonArrivals(700.0, seed=2).generate(300))
        assert report.routing.queue_requests[0] > report.routing.queue_requests[1]

    def test_sed_routes_long_sequences_to_big_chip(self):
        # chip 0 is insensitive to length, chip 1 prices it steeply: long
        # requests must prefer chip 0 even under load
        fleet = ChipFleet(
            service_models=[
                FixedServiceModel(2e-3),
                PerTokenModel(base_s=1e-4, per_token_s=1e-4),
            ]
        )
        simulator = ServingSimulator(
            fleet, router=Router(policy="shortest_expected_delay", stealing=False)
        )
        report = simulator.run(
            PoissonArrivals(400.0, seq_len=[16, 512], seed=3).generate(300)
        )
        long_chips = [
            record.chip for record in report.requests if record.seq_len == 512
        ]
        assert long_chips and all(chip == 0 for chip in long_chips)

    def test_all_policies_conserve_requests(self):
        requests = PoissonArrivals(2000.0, seed=4).generate(157)
        for policy in ROUTING_POLICIES:
            report = routed(policy=policy).run(requests)
            assert report.num_requests == 157
            assert sorted(report.requests.index.tolist()) == list(range(157))


def _streams(model) -> list[tuple]:
    """Generator state and tier counters of every model in a wrapper chain."""
    state = []
    while model is not None:
        fields = vars(model)
        rng = fields.get("_rng")
        state.append(
            (
                type(model).__name__,
                None if rng is None else rng.bit_generator.state,
                fields.get("last_tier"),
                fields.get("analytic_dispatches"),
                fields.get("executed_dispatches"),
            )
        )
        model = fields.get("base")
    return state


def _tiered(base) -> TieredServiceModel:
    templates = {
        (batch, seq_len): ScheduleTemplate(
            batch, seq_len, 2, 4 * batch, 1e-3 * batch, 0.0, (1e-8, 3e-8, 1e-8)
        )
        for batch in (1, 2, 4)
        for seq_len in (64, 128)
    }
    return TieredServiceModel(base, sample_fraction=0.5, seed=3, templates=templates)


class TestOracleStreams:
    """The SED cost oracle prices a chip without drawing from its model.

    A draw there would shift every later dispatch's service time, so the
    same trace would serve differently with and without the router.
    """

    @pytest.mark.parametrize(
        "build",
        [
            lambda: ExponentialServiceModel(1e-3, seed=1),
            lambda: _tiered(ExponentialServiceModel(1e-3, seed=1)),
            lambda: LinearServiceModel(ExponentialServiceModel(1e-3, seed=1)),
            lambda: LinearServiceModel(_tiered(ExponentialServiceModel(1e-3, seed=1))),
            lambda: _tiered(LinearServiceModel(ExponentialServiceModel(1e-3, seed=1))),
        ],
        ids=["exponential", "tiered", "linear", "linear-tiered", "tiered-linear"],
    )
    def test_cost_row_never_advances_a_stream(self, build):
        model = build()
        model.batch_latency_s(2, 128)  # a priced dispatch sets the tier state
        fleet = ChipFleet(model, num_chips=2, speedups=(1.0, 2.0))
        route = front_end(Router(), fleet, 4, [[], []], [0, 0])
        before = _streams(model)
        chosen = [route(Request(0, 0.0, seq_len), (0, 1)) for seq_len in (64, 128)]
        assert _streams(model) == before
        assert chosen == [1, 1]  # the twice-as-fast chip


class TestNetworkStage:
    def test_dispatch_waits_for_the_hop(self):
        hop = 5e-4
        report = routed(network=NetworkModel(link_latency_s=hop)).run(
            PoissonArrivals(500.0, seed=5).generate(60)
        )
        for record in report.requests:
            assert record.dispatch_s >= record.arrival_s + hop - 1e-12

    def test_route_network_time_accumulates(self):
        hop = 1e-4
        report = routed(network=NetworkModel(link_latency_s=hop)).run(
            PoissonArrivals(500.0, seed=5).generate(60)
        )
        assert report.routing.route_network_s == pytest.approx(60 * hop)

    def test_zero_latency_links_add_no_hop_events(self):
        # a zero-latency route lands inside its arrival event and a delayed
        # one lands from its link's FIFO, so neither run pushes a hop onto
        # the heap: without a wait timer, each pops only its completions
        requests = PoissonArrivals(500.0, seed=6).generate(50)
        for hop in (0.0, 1e-5):
            simulator = routed(network=NetworkModel(link_latency_s=hop))
            report = simulator.run(requests)
            profile = simulator.last_profile
            assert report.routing.num_routed == len(requests)
            assert profile.events_scheduled == profile.events_popped == report.num_batches
            # every chip is idle at each landing, so each request leaves at once
            np.testing.assert_array_equal(
                report.requests.dispatch_s, report.requests.arrival_s + hop
            )


class TestWorkStealing:
    def steal_report(self, stealing: bool) -> ServingReport:
        # round-robin halves traffic over a 4x-speed-skewed pair: the fast
        # chip drains its own queue and then idles unless it may steal
        fleet = ChipFleet(
            FixedServiceModel(1e-3, request_energy_j=1e-5, idle_power_w=0.1),
            num_chips=2,
            speedups=(4.0, 1.0),
        )
        router = Router(
            policy="round_robin",
            network=NetworkModel(steal_latency_s=1e-5),
            stealing=stealing,
        )
        simulator = ServingSimulator(fleet, router=router)
        return simulator.run(PoissonArrivals(3000.0, seed=7).generate(400))

    def test_stealing_happens_and_is_recorded(self):
        report = self.steal_report(stealing=True)
        stats = report.routing
        assert stats.stolen_batches > 0
        assert len(stats.steals) == stats.stolen_batches
        assert stats.steal_network_s == pytest.approx(stats.stolen_batches * 1e-5)
        for steal in stats.steals:
            assert steal.queue != steal.chip
            batch = report.batches[steal.batch_index]
            assert batch.chip == steal.chip
            # the stolen batch pays the hop after the steal decision
            assert batch.dispatch_s == pytest.approx(steal.decided_s + 1e-5)

    def test_stealing_improves_makespan(self):
        with_steal = self.steal_report(stealing=True)
        without = self.steal_report(stealing=False)
        assert without.routing.stolen_batches == 0
        assert with_steal.makespan_s < without.makespan_s

    def test_steal_record_validates(self):
        with pytest.raises(ValueError, match="steal"):
            StealRecord(batch_index=0, queue=1, chip=1, decided_s=0.0)


class TestRoutedFaults:
    def fault_run(self) -> ServingReport:
        simulator = routed(
            num_chips=3,
            batcher=DynamicBatcher(max_batch_size=4, max_wait_s=1e-3),
            faults=FaultInjector(mtbf_s=0.05, detection_s=1e-3, repair_s=5e-3, seed=9),
            retry=RetryPolicy(max_attempts=4),
        )
        return simulator.run(PoissonArrivals(2000.0, seed=9).generate(600))

    def test_fault_run_completes_with_retries(self):
        report = self.fault_run()
        assert report.faults_enabled
        assert report.num_failures > 0
        assert report.num_retries > 0
        assert report.num_requests + report.num_shed + report.num_abandoned == 600

    def test_fault_run_reproducible(self):
        assert self.fault_run().requests == self.fault_run().requests

    def test_admission_sheds_against_fleet_backlog(self):
        simulator = routed(
            num_chips=2,
            admission=AdmissionController(max_queue_depth=10),
        )
        report = simulator.run(PoissonArrivals(50000.0, seed=10).generate(500))
        assert report.num_shed > 0
        assert report.num_requests + report.num_shed == 500

    def test_routed_edf_improves_attainment(self):
        # routing composes with EDF dispatch: deadlines drain first
        slo = SLOPolicy(
            (SLOClass("interactive", 5e-3), SLOClass("batch", 1.0))
        )
        requests = slo.tag_by_length(
            PoissonArrivals(4000.0, seq_len=[64, 128], seed=11).generate(500),
            boundaries=(64,),
        )
        def run(order: str) -> float:
            simulator = routed(
                num_chips=2,
                policy="round_robin",
                batcher=DynamicBatcher(max_batch_size=4, max_wait_s=1e-3, order=order),
                retry=RetryPolicy(),
            )
            return simulator.run(requests).deadline_attainment()

        assert run("edf") >= run("fifo")


class TestRoutingStatsAndReport:
    def one_report(self) -> ServingReport:
        return routed(num_chips=2, policy="round_robin").run(
            PoissonArrivals(3000.0, seed=12).generate(200)
        )

    def test_queue_ledger_matches_a_loop_over_the_tables(self):
        # the loop reference the per-queue ledger is summed against: a
        # batch's home queue is its chip unless a steal record says so
        report = routed(
            num_chips=3,
            batcher=DynamicBatcher(max_batch_size=4, max_wait_s=1e-3),
            faults=FaultInjector(mtbf_s=0.05, detection_s=1e-3, repair_s=2e-3, seed=4),
        ).run(PoissonArrivals(2500.0, seed=13).generate(600))
        home = report.batches.chip.tolist()
        for steal in report.routing.steals:
            home[steal.batch_index] = steal.queue
        requests = [0] * 3
        wait_s = [0.0] * 3
        for record in report.requests:
            requests[home[record.batch_index]] += 1
            wait_s[home[record.batch_index]] += record.wait_s
        stats = report.routing
        assert stats.queue_requests == tuple(requests)
        assert stats.queue_wait_s == pytest.approx(wait_s, rel=1e-12)
        assert stats.local_batches + stats.stolen_batches == report.num_batches

    def test_summary_and_format_include_routing(self):
        report = self.one_report()
        assert report.routing_enabled
        summary = report.summary()
        assert summary["num_routed"] == 200
        text = report.format_table()
        assert "routing policy" in text
        assert "local / stolen batches" in text
        assert "per-queue peak depth" in text

    def test_unrouted_report_has_no_routing_section(self):
        report = ServingSimulator(fixed_fleet(2)).run(
            PoissonArrivals(3000.0, seed=12).generate(200)
        )
        assert not report.routing_enabled
        assert "routing policy" not in report.format_table()
        assert "num_routed" not in report.summary()

    def test_stats_derived_metrics(self):
        stats = self.one_report().routing
        assert stats.num_queues == 2
        assert stats.peak_queue_depth == max(stats.queue_peaks)
        assert 0.0 <= stats.stolen_fraction <= 1.0
        total = stats.local_batches + stats.stolen_batches
        assert stats.stolen_fraction == pytest.approx(stats.stolen_batches / total)
        for queue in range(stats.num_queues):
            assert stats.queue_mean_wait_s(queue) >= 0.0

    def test_merge_offsets_queues_and_sums_counters(self):
        first, second = self.one_report(), self.one_report()
        merged = ServingReport.merge([first, second])
        stats = merged.routing
        assert stats.num_routed == 400
        assert stats.queue_peaks == first.routing.queue_peaks + second.routing.queue_peaks
        assert stats.stolen_batches == (
            first.routing.stolen_batches + second.routing.stolen_batches
        )
        for steal in stats.steals[len(first.routing.steals) :]:
            assert steal.queue >= first.num_chips
            assert steal.chip >= first.num_chips

    def test_merge_routed_with_unrouted_rejected(self):
        routed_report = self.one_report()
        plain = ServingSimulator(fixed_fleet(2)).run(
            PoissonArrivals(3000.0, seed=12).generate(200)
        )
        with pytest.raises(ValueError, match="routed"):
            ServingReport.merge([routed_report, plain])

    def test_merge_mixed_policies_rejected(self):
        jsq = routed(num_chips=2, policy="join_shortest_queue").run(
            PoissonArrivals(3000.0, seed=12).generate(200)
        )
        with pytest.raises(ValueError, match="polic"):
            ServingReport.merge([self.one_report(), jsq])


class TestRoutedProfiling:
    def test_profile_routing_counters(self):
        simulator = routed(num_chips=2, policy="round_robin")
        report = simulator.run(
            PoissonArrivals(3000.0, seed=13).generate(150), label="routed"
        )
        profile = simulator.last_profile
        assert profile.routed_requests == 150
        assert profile.stolen_batches == report.routing.stolen_batches
        assert profile.peak_queue_depth == report.routing.peak_queue_depth

    def test_unrouted_profile_counters_stay_zero(self):
        simulator = ServingSimulator(fixed_fleet(2))
        simulator.run(PoissonArrivals(3000.0, seed=13).generate(150), label="plain")
        assert simulator.last_profile.routed_requests == 0
        assert simulator.last_profile.stolen_batches == 0
        assert simulator.last_profile.peak_queue_depth == 0

    def test_profiler_table_shows_routing_columns(self):
        from repro.serving import Profiler

        profiler = Profiler()
        profiler.enabled = True
        simulator = routed(num_chips=2)
        simulator.run(PoissonArrivals(3000.0, seed=13).generate(100), label="routed")
        profiler.record(simulator.last_profile)
        table = profiler.format_table()
        assert "routed" in table and "stolen" in table and "peak q" in table


class TestShardedRouting:
    def test_serial_matches_parallel_with_router(self):
        router = Router(
            policy="shortest_expected_delay",
            network=NetworkModel(
                link_latency_s=(1e-5, 2e-5, 3e-5, 4e-5), steal_latency_s=1e-5
            ),
        )
        arrivals = PoissonArrivals(3000.0, seq_len=[64, 128], seed=14)

        def run(parallel: bool) -> ServingReport:
            simulator = ShardedServingSimulator(
                fixed_fleet(4), num_shards=2, router=router, parallel=parallel
            )
            return simulator.run_poisson(arrivals, 800)

        serial, parallel = run(False), run(True)
        assert serial.requests == parallel.requests
        assert serial.batches == parallel.batches
        assert serial.routing == parallel.routing

    def test_topology_partitions_with_chips(self):
        router = Router(network=NetworkModel(link_latency_s=(1e-5, 2e-5, 3e-5, 4e-5)))
        simulator = ShardedServingSimulator(
            fixed_fleet(4), num_shards=2, router=router, parallel=False
        )
        tasks = simulator._tasks()
        assert tasks[0].router.network.link_latency_s == (1e-5, 2e-5)
        assert tasks[1].router.network.link_latency_s == (3e-5, 4e-5)

    def test_merged_routing_covers_all_queues(self):
        simulator = ShardedServingSimulator(
            fixed_fleet(4), num_shards=2, router=Router(), parallel=False
        )
        report = simulator.run_poisson(PoissonArrivals(3000.0, seed=15), 600)
        assert report.routing.num_queues == 4
        assert report.routing.num_routed == 600
