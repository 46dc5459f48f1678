"""The sharded simulator: splitting, seeding, merging and their invariants.

Covers the three legs the scale-out stands on: the front-end splitters
partition traffic without loss or duplication, per-shard seeding is one
``SeedSequence.spawn`` tree (same seed + shard count ⇒ identical merged
report, serial or parallel), and :meth:`ServingReport.merge` is exact —
pooled latency samples, summed ledgers, offset chip/batch ids — plus
order-insensitive on every scalar metric and Little's-law consistent
(the hypothesis property leg).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving import (
    ChipFleet,
    DynamicBatcher,
    ExponentialServiceModel,
    FaultInjector,
    FixedServiceModel,
    LinearServiceModel,
    PoissonArrivals,
    Profiler,
    RetryPolicy,
    ServingReport,
    ServingSimulator,
    ShardedServingSimulator,
    SPLIT_POLICIES,
    TabulatedServiceModel,
)
from repro.serving.sharded import _simulate_shard
from repro.utils.stats import percentile


def small_fleet(num_chips: int = 4, service_s: float = 1e-3) -> ChipFleet:
    return ChipFleet(
        FixedServiceModel(service_s, request_energy_j=1e-5, idle_power_w=0.1),
        num_chips=num_chips,
    )


def sharded(num_chips: int = 4, num_shards: int = 4, **kwargs) -> ShardedServingSimulator:
    kwargs.setdefault("parallel", False)  # serial in-process: same results, coverable
    return ShardedServingSimulator(small_fleet(num_chips), num_shards=num_shards, **kwargs)


class TestSplitters:
    def test_round_robin_partitions_without_loss(self):
        requests = PoissonArrivals(2000.0, seed=1).generate(101)
        report = sharded().run(requests, policy="round_robin")
        assert report.num_requests == 101
        assert sorted(report.requests.index.tolist()) == [r.index for r in requests]

    def test_round_robin_interleaves(self):
        requests = PoissonArrivals(2000.0, seed=1).generate(40)
        simulator = sharded(num_shards=4)
        simulator.run(requests, policy="round_robin")
        for shard, shard_report in enumerate(simulator.last_reports):
            assert shard_report.requests.index.tolist() == list(range(shard, 40, 4))

    def test_seq_hash_is_sticky_per_length(self):
        requests = PoissonArrivals(2000.0, seq_len=[64, 128, 256, 512], seed=2).generate(200)
        simulator = sharded(num_shards=2)
        simulator.run(requests, policy="seq_hash")
        shard_of_len: dict[int, int] = {}
        for shard, shard_report in enumerate(simulator.last_reports):
            for seq_len in shard_report.requests.seq_len.tolist():
                assert shard_of_len.setdefault(seq_len, shard) == shard

    def test_random_split_partitions_without_loss(self):
        requests = PoissonArrivals(2000.0, seed=3).generate(97)
        report = sharded(num_shards=3, num_chips=3).run(requests, policy="random", seed=11)
        assert sorted(report.requests.index.tolist()) == [r.index for r in requests]

    def test_unknown_policy_rejected(self):
        requests = PoissonArrivals(2000.0, seed=1).generate(8)
        with pytest.raises(ValueError, match="policy"):
            sharded().run(requests, policy="by-vibes")
        assert set(SPLIT_POLICIES) == {"round_robin", "seq_hash", "random"}

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError, match="empty request stream"):
            sharded().run([])

    def test_empty_shard_still_counts_its_chips(self):
        # 3 requests round-robin over 4 shards: shard 3 serves nothing but
        # its chip must still appear in the merged fleet
        requests = PoissonArrivals(2000.0, seed=1).generate(3)
        report = sharded().run(requests, policy="round_robin")
        assert report.num_requests == 3
        assert report.num_chips == 4
        assert len(report.chip_busy_s) == 4

    def test_empty_shard_keeps_hook_columns_aligned(self):
        # an empty shard runs the same loop: its routed queues, sleep
        # columns and fault settings still line up with the other shards'
        from repro.serving import Autoscaler, Router

        requests = PoissonArrivals(2000.0, seed=1).generate(3)
        report = sharded(
            faults=FaultInjector(mtbf_s=1.0, detection_s=1e-3, repair_s=1e-3),
            retry=RetryPolicy(deadline_s=0.5),
            autoscaler=Autoscaler(interval_s=1e-3),
            router=Router(),
        ).run(requests, policy="round_robin")
        assert report.num_requests == 3
        assert report.faults_enabled and report.deadline_s == 0.5
        assert len(report.chip_sleep_s) == len(report.chip_sleep_power_w) == 4
        assert report.autoscale_enabled  # derived from the merged sleep powers
        assert report.routing.num_queues == 4
        assert report.routing.num_routed == 3


class TestShardValidation:
    def test_more_shards_than_chips_rejected(self):
        with pytest.raises(ValueError, match="at least one chip per shard"):
            ShardedServingSimulator(small_fleet(2), num_shards=3)

    def test_fewer_requests_than_shards_rejected(self):
        with pytest.raises(ValueError, match="split"):
            sharded().run_poisson(PoissonArrivals(100.0, seed=0), 3)

    def test_uneven_chip_partition(self):
        simulator = sharded(num_chips=7, num_shards=3)
        sizes = [s.stop - s.start for s in simulator._chip_slices()]
        assert sizes == [3, 2, 2]
        report = simulator.run_poisson(PoissonArrivals(3000.0, seed=5), 300)
        assert report.num_chips == 7


class TestDeterminism:
    def test_same_seed_same_merged_report(self):
        arrivals = PoissonArrivals(3000.0, seq_len=[64, 128], seed=42)
        first = sharded().run_poisson(arrivals, 2000)
        second = sharded().run_poisson(arrivals, 2000)
        assert first.requests == second.requests
        assert first.batches == second.batches
        assert first.chip_busy_s == second.chip_busy_s

    def test_serial_matches_parallel(self):
        arrivals = PoissonArrivals(3000.0, seq_len=[64, 128], seed=7)
        serial = sharded(parallel=False).run_poisson(arrivals, 1000)
        parallel = sharded(parallel=True).run_poisson(arrivals, 1000)
        assert serial.requests == parallel.requests
        assert serial.batches == parallel.batches

    @pytest.mark.parametrize("wrap", [None, LinearServiceModel], ids=["bare", "linear"])
    def test_serial_matches_parallel_over_random_service(self, wrap):
        # every shard must draw service times from its own stream: a shared
        # model continues shard 0's draws serially but restarts them in a
        # forked worker
        reports = []
        for parallel in (False, True):
            model = ExponentialServiceModel(1e-3, seed=5)
            fleet = ChipFleet(model if wrap is None else wrap(model), num_chips=2)
            simulator = ShardedServingSimulator(fleet, num_shards=2, parallel=parallel)
            reports.append(simulator.run_poisson(PoissonArrivals(1200.0, seed=2), 4000))
        serial, parallel = reports
        assert serial.requests == parallel.requests
        assert serial.batches == parallel.batches

    def test_shard_streams_are_independent(self):
        # distinct spawn children: no two shards may replay the same gaps
        streams = PoissonArrivals(1000.0, seed=0).shards(4)
        traces = [tuple(r.arrival_s for r in s.generate(50)) for s in streams]
        assert len(set(traces)) == 4

    def test_poisson_indices_globally_unique(self):
        report = sharded().run_poisson(PoissonArrivals(2000.0, seed=9), 1003)
        indices = report.requests.index.tolist()
        assert sorted(indices) == list(range(1003))

    def test_fault_aware_sharded_reproducible(self):
        simulator = sharded(
            num_shards=2,
            num_chips=4,
            faults=FaultInjector(mtbf_s=0.2, detection_s=1e-3, repair_s=1e-3, seed=3),
            retry=RetryPolicy(max_attempts=3),
        )
        arrivals = PoissonArrivals(3000.0, seed=1)
        first = simulator.run_poisson(arrivals, 1500)
        second = simulator.run_poisson(arrivals, 1500)
        assert first.requests == second.requests
        assert first.num_failures == second.num_failures
        assert first.faults_enabled

    def test_fault_seeds_differ_across_shards(self):
        simulator = sharded(
            num_shards=2, faults=FaultInjector(mtbf_s=0.5, seed=3)
        )
        injectors = simulator._shard_faults()
        rngs = [np.random.default_rng(i.seed) for i in injectors]
        assert rngs[0].exponential(1.0) != rngs[1].exponential(1.0)


class TestMerge:
    def shard_reports(self, num_shards: int = 3, seed: int = 0) -> list[ServingReport]:
        simulator = sharded(num_shards=num_shards, num_chips=num_shards)
        simulator.run_poisson(PoissonArrivals(2000.0, seq_len=[64, 128], seed=seed), 900)
        return simulator.last_reports

    def test_merged_percentiles_match_pooled_samples(self):
        reports = self.shard_reports()
        merged = ServingReport.merge(reports)
        pooled = np.concatenate([r.requests.latency_s for r in reports])
        for q in (50.0, 95.0, 99.0):
            assert merged.latency_percentile_s(q) == pytest.approx(
                float(percentile(pooled, q)), rel=1e-12
            )

    def test_ledgers_sum_exactly(self):
        reports = self.shard_reports()
        merged = ServingReport.merge(reports)
        assert merged.num_requests == sum(r.num_requests for r in reports)
        assert merged.num_batches == sum(r.num_batches for r in reports)
        assert merged.energy_j == pytest.approx(
            sum(r.energy_j for r in reports), rel=1e-12
        )
        assert merged.chip_busy_s == tuple(
            busy for r in reports for busy in r.chip_busy_s
        )
        assert merged.queue_peak == max(r.queue_peak for r in reports)
        assert merged.num_shards == len(reports)

    def test_chip_and_batch_ids_are_offset(self):
        reports = self.shard_reports(num_shards=2)
        merged = ServingReport.merge(reports)
        first_chips = set(merged.requests.chip[: reports[0].num_requests].tolist())
        assert first_chips <= set(range(reports[0].num_chips))
        second_chips = set(merged.requests.chip[reports[0].num_requests :].tolist())
        assert second_chips <= {
            reports[0].num_chips + c for c in range(reports[1].num_chips)
        }
        # batch indices stay consistent between the request and batch tables
        for record in merged.requests:
            batch = merged.batches[record.batch_index]
            assert batch.chip == record.chip
            assert batch.dispatch_s == record.dispatch_s

    def test_merge_single_report_is_identity(self):
        report = self.shard_reports(num_shards=1, seed=4)[0]
        merged = ServingReport.merge([report])
        assert merged.requests == report.requests
        assert merged.num_chips == report.num_chips

    def test_merge_empty_rejected(self):
        with pytest.raises(ValueError, match="empty sequence"):
            ServingReport.merge([])

    def test_merge_mixed_deadlines_rejected(self):
        reports = self.shard_reports(num_shards=2)
        from dataclasses import replace

        with pytest.raises(ValueError, match="deadline"):
            ServingReport.merge([reports[0], replace(reports[1], deadline_s=0.5)])


class TestMergeProperties:
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        num_shards=st.integers(min_value=2, max_value=4),
        order_seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=25, deadline=None)
    def test_merge_is_order_insensitive(self, seed, num_shards, order_seed):
        simulator = sharded(num_shards=num_shards, num_chips=num_shards)
        simulator.run_poisson(
            PoissonArrivals(2000.0, seq_len=[64, 256], seed=seed), 60 * num_shards
        )
        reports = simulator.last_reports
        shuffled = list(reports)
        np.random.default_rng(order_seed).shuffle(shuffled)
        merged = ServingReport.merge(reports)
        remerged = ServingReport.merge(shuffled)
        for metric in (
            "num_requests",
            "num_batches",
            "throughput_rps",
            "p50_latency_s",
            "p99_latency_s",
            "mean_latency_s",
            "mean_utilization",
            "energy_j",
            "queue_peak",
        ):
            assert getattr(merged, metric) == pytest.approx(
                getattr(remerged, metric), rel=1e-9
            ), metric


class TestTabulatedPricing:
    def test_table_matches_base_model(self):
        base = FixedServiceModel(2e-3, request_energy_j=3e-5)
        table = TabulatedServiceModel.tabulate(base, [1, 2, 4], [64, 128])
        for batch in (1, 2, 4):
            for seq_len in (64, 128):
                assert table.batch_latency_s(batch, seq_len) == base.batch_latency_s(
                    batch, seq_len
                )
                assert table.batch_energy_j(batch, seq_len) == base.batch_energy_j(
                    batch, seq_len
                )

    def test_missing_shape_fails_loudly(self):
        table = TabulatedServiceModel.tabulate(FixedServiceModel(1e-3), [1], [128])
        with pytest.raises(KeyError, match="not.*tabulated"):
            table.batch_latency_s(2, 128)

    def test_homogeneous_fleet_shares_one_table(self):
        fleet = small_fleet(4).tabulated([1, 2], [128])
        assert len({id(m) for m in fleet.models}) == 1
        assert isinstance(fleet.service_model, TabulatedServiceModel)

    def test_prewarmed_sharded_run_matches_unwarmed(self):
        arrivals = PoissonArrivals(2000.0, seed=6)
        plain = sharded().run_poisson(arrivals, 600)
        warmed = sharded().prewarm([1], [128]).run_poisson(arrivals, 600)
        assert plain.requests == warmed.requests
        assert plain.batches == warmed.batches

    def test_sharded_matches_single_process_on_same_partition(self):
        # the correctness anchor: simulating the shards in-process with
        # plain ServingSimulators reproduces the sharded run bit for bit
        arrivals = PoissonArrivals(3000.0, seq_len=[64, 128], seed=8)
        simulator = sharded(num_shards=4)
        merged = simulator.run_poisson(arrivals, 1200)
        reports = []
        for stream, count, offset in zip(
            arrivals.shards(4), (300, 300, 300, 300), (0, 300, 600, 900)
        ):
            single = ServingSimulator(small_fleet(1))
            reports.append(single.run(stream.generate(count, offset)))
        by_hand = ServingReport.merge(reports)
        assert merged.requests == by_hand.requests
        assert merged.batches == by_hand.batches


class TestProfiling:
    def test_last_profile_populated(self):
        simulator = ServingSimulator(small_fleet(1))
        report = simulator.run(PoissonArrivals(500.0, seed=0).generate(50), label="unit")
        profile = simulator.last_profile
        assert profile is not None and profile.label == "unit"
        assert profile.num_requests == report.num_requests
        assert profile.events_popped == profile.events_scheduled > 0
        assert profile.dispatch_calls > 0
        assert profile.wall_s > 0
        assert profile.requests_per_s > 0

    def test_sharded_collects_shard_profiles(self):
        simulator = sharded(num_shards=2, num_chips=2)
        simulator.run_poisson(PoissonArrivals(1000.0, seed=1), 200)
        assert len(simulator.last_profiles) == 2
        assert {p.label for p in simulator.last_profiles} == {"shard 0/2", "shard 1/2"}

    def test_profiler_gating_and_table(self):
        profiler = Profiler()
        simulator = ServingSimulator(small_fleet(1))
        requests = PoissonArrivals(500.0, seed=0).generate(20)
        simulator.run(requests)
        profiler.record(simulator.last_profile)  # disabled: dropped
        assert profiler.runs == []
        assert "no runs" in profiler.format_table()
        profiler.enabled = True
        simulator.run(requests)
        profiler.record(simulator.last_profile)
        assert len(profiler.runs) == 1
        assert "serving" in profiler.format_table()
        profiler.clear()
        assert profiler.runs == []

    def test_worker_entry_point_runs_standalone(self):
        # the function a pool pickles must work when called directly
        from repro.serving.sharded import _ShardTask

        task = _ShardTask(
            shard=0,
            num_shards=1,
            models=(FixedServiceModel(1e-3),),
            speedups=(1.0,),
            batcher=DynamicBatcher(max_batch_size=2, max_wait_s=1e-3),
            faults=None,
            retry=None,
            admission=None,
            arrivals=PoissonArrivals(1000.0, seed=0),
            num_requests=100,
        )
        report, profile = _simulate_shard(task)
        assert report.num_requests == 100
        assert profile is not None and profile.label == "shard 0/1"
