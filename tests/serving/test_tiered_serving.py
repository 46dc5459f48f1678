"""Unit tests of the tiered-fidelity serving layer.

Covers the :class:`~repro.serving.fleet.TieredServiceModel` wrapper
(Bernoulli routing, seeding, energy stream-independence, tabulation), the
per-tier report columns and their merge, the schedule-template cache, the
profiling counters, and faults composing with the control plane (EDF,
autoscaler) in one run.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core.schedule_cache import ScheduleTemplate, ScheduleTemplateCache
from repro.nn.bert import BertConfig
from repro.serving import (
    ChipFleet,
    DynamicBatcher,
    FaultInjector,
    FixedServiceModel,
    LinearServiceModel,
    PoissonArrivals,
    ServingReport,
    ServingSimulator,
    ShardedServingSimulator,
    StarServiceModel,
    TabulatedServiceModel,
    TIER_ANALYTIC,
    TIER_EXECUTED,
    TieredServiceModel,
)


def _template(batch: int, seq_len: int = 128) -> ScheduleTemplate:
    return ScheduleTemplate(
        batch_size=batch,
        seq_len=seq_len,
        num_layers=2,
        num_rows=4 * batch,
        base_latency_s=2e-3 * batch,
        energy_j=1e-6 * batch,
        steady_row_s=(1e-8, 3e-8, 1e-8),
    )


def _tiered(fraction: float, seed: int = 0, sigma: float = 0.2) -> TieredServiceModel:
    templates = {(b, 128): _template(b) for b in range(1, 9)}
    return TieredServiceModel(
        FixedServiceModel(1e-3, request_energy_j=1e-6),
        sample_fraction=fraction,
        jitter_sigma=sigma,
        seed=seed,
        templates=templates,
    )


class TestTieredServiceModel:
    def test_fraction_one_routes_every_dispatch_executed(self):
        model = _tiered(1.0)
        for batch in (1, 4, 8):
            model.batch_latency_s(batch, 128)
            assert model.last_tier == TIER_EXECUTED
        assert model.executed_dispatches == 3
        assert model.analytic_dispatches == 0

    def test_fraction_zero_is_pure_passthrough(self):
        model = _tiered(0.0)
        assert model.batch_latency_s(4, 128) == model.base.batch_latency_s(4, 128)
        assert model.last_tier == TIER_ANALYTIC
        assert model.executed_dispatches == 0

    def test_bernoulli_routing_is_seeded_and_reproducible(self):
        draws_a = [_tiered(0.5, seed=3).batch_latency_s(2, 128) for _ in range(1)]
        model_a, model_b = _tiered(0.5, seed=3), _tiered(0.5, seed=3)
        tiers_a = [
            (model_a.batch_latency_s(2, 128), model_a.last_tier) for _ in range(50)
        ]
        tiers_b = [
            (model_b.batch_latency_s(2, 128), model_b.last_tier) for _ in range(50)
        ]
        assert tiers_a == tiers_b
        assert draws_a  # seeded single-draw smoke
        # and a different seed gives a different tier pattern
        model_c = _tiered(0.5, seed=4)
        tiers_c = [
            (model_c.batch_latency_s(2, 128), model_c.last_tier) for _ in range(50)
        ]
        assert tiers_c != tiers_a

    def test_energy_queries_never_advance_the_sampling_stream(self):
        with_energy, without = _tiered(0.5, seed=9), _tiered(0.5, seed=9)
        seq_a, seq_b = [], []
        for _ in range(30):
            with_energy.batch_energy_j(4, 128)  # interleaved energy queries
            seq_a.append(with_energy.batch_latency_s(4, 128))
            seq_b.append(without.batch_latency_s(4, 128))
        assert seq_a == seq_b

    def test_executed_draws_exceed_template_base(self):
        model = _tiered(1.0, sigma=0.5)
        base = _template(4).base_latency_s
        draws = [model.batch_latency_s(4, 128) for _ in range(20)]
        assert all(draw >= base for draw in draws)
        assert max(draws) > base  # sigma=0.5 jitter actually moves some draw

    def test_reset_replays_the_same_tier_sequence(self):
        model = _tiered(0.5, seed=21)
        first = [model.batch_latency_s(2, 128) for _ in range(20)]
        model.reset()
        assert [model.batch_latency_s(2, 128) for _ in range(20)] == first

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            _tiered(1.5)
        with pytest.raises(ValueError):
            TieredServiceModel(FixedServiceModel(1e-3), jitter_sigma=-0.1)

    def test_missing_template_without_accelerator_fails_with_hint(self):
        model = TieredServiceModel(
            FixedServiceModel(1e-3), sample_fraction=1.0, templates={}
        )
        with pytest.raises(KeyError, match="build_templates"):
            model.batch_latency_s(4, 128)


class TestTabulatedTiering:
    def test_tabulated_prices_identically_to_the_live_model(self):
        batches, lens = range(1, 9), (128,)
        live = TieredServiceModel(
            StarServiceModel(seq_len=128),
            sample_fraction=0.5,
            jitter_sigma=0.3,
            seed=5,
        )
        shipped = TieredServiceModel(
            StarServiceModel(seq_len=128),
            sample_fraction=0.5,
            jitter_sigma=0.3,
            seed=5,
        ).tabulated(batches, lens)
        for batch in batches:
            assert shipped.batch_latency_s(batch, 128) == live.batch_latency_s(
                batch, 128
            )
            assert shipped.batch_energy_j(batch, 128) == live.batch_energy_j(
                batch, 128
            )

    def test_fleet_tabulated_preserves_tiering(self):
        fleet = ChipFleet(
            TieredServiceModel(
                StarServiceModel(seq_len=128), sample_fraction=1.0, seed=2
            ),
            num_chips=2,
        )
        cached = fleet.tabulated([1, 2, 4], [128])
        model = cached.models[0]
        assert isinstance(model, TieredServiceModel)
        assert cached.models[1] is model  # shared instance stays shared
        model.batch_latency_s(2, 128)
        assert model.last_tier == TIER_EXECUTED

    def test_prewarm_keeps_a_linear_wrapped_tiered_fleet_sampling(self):
        # the linear wrapper tabulates its base for single requests, so a
        # prewarmed tiered base keeps drawing executed-tier latencies
        # instead of being frozen into one analytic table
        def run(parallel: bool) -> ServingReport:
            star = StarServiceModel(bert_config=BertConfig(num_layers=2))
            tiered = TieredServiceModel(
                star, sample_fraction=1.0, jitter_sigma=0.3, seed=0
            )
            simulator = ShardedServingSimulator(
                ChipFleet(LinearServiceModel(tiered), num_chips=2),
                DynamicBatcher(max_batch_size=4, max_wait_s=1e-3),
                num_shards=2,
                parallel=parallel,
            ).prewarm(range(1, 5), [128])
            return simulator.run_poisson(PoissonArrivals(300.0, seq_len=128, seed=1), 400)

        report = run(parallel=True)
        assert report.num_batches_in_tier(TIER_EXECUTED) == report.num_batches > 0
        serial = run(parallel=False)
        assert serial.requests == report.requests
        assert serial.batches == report.batches

        # over an analytic base the single-request table prices every shape,
        # and reports every capability, exactly as tabulating the wrapper did
        star = StarServiceModel(bert_config=BertConfig(num_layers=2))
        batches, lens = range(1, 9), [64, 128, 512]
        shipped = LinearServiceModel(star).tabulated(batches, lens)
        frozen = TabulatedServiceModel.tabulate(LinearServiceModel(star), batches, lens)
        for batch in batches:
            for seq_len in lens:
                for price in ("batch_latency_s", "batch_energy_j", "expected_latency_s"):
                    assert getattr(shipped, price)(batch, seq_len) == getattr(
                        frozen, price
                    )(batch, seq_len)
        for name in (
            "idle_power_w",
            "reprogram_latency_s",
            "sleep_power_w",
            "sleep_entry_latency_s",
            "wake_latency_s",
            "wake_energy_j",
            "last_tier",
        ):
            assert getattr(shipped, name) == getattr(frozen, name)

    def test_template_cache_hits_and_bounds(self):
        cache = ScheduleTemplateCache(maxsize=2)
        accelerator = StarServiceModel(seq_len=128).accelerator
        from repro.nn.bert import BERT_BASE, BertWorkload

        workloads = [
            BertWorkload(config=BERT_BASE, seq_len=128).with_batch(batch)
            for batch in (1, 2, 3)
        ]
        first = cache.get_or_build(accelerator, workloads[0])
        again = cache.get_or_build(accelerator, workloads[0])
        assert again is first
        assert (cache.hits, cache.misses) == (1, 1)
        cache.get_or_build(accelerator, workloads[1])
        cache.get_or_build(accelerator, workloads[2])  # evicts the oldest
        assert len(cache) == 2


class TestTierReporting:
    def _report(self, fraction: float) -> ServingReport:
        fleet = ChipFleet(_tiered(fraction, seed=1), num_chips=2)
        requests = PoissonArrivals(800.0, seq_len=128, seed=1).generate(200)
        return ServingSimulator(
            fleet, DynamicBatcher(max_batch_size=8, max_wait_s=1e-3)
        ).run(requests)

    def test_tier_column_partitions_the_batches(self):
        report = self._report(0.5)
        assert report.tiering_enabled
        executed = report.num_batches_in_tier(TIER_EXECUTED)
        analytic = report.num_batches_in_tier(TIER_ANALYTIC)
        assert executed + analytic == report.num_batches
        assert 0 < executed < report.num_batches
        assert report.num_requests_in_tier(TIER_EXECUTED) + report.num_requests_in_tier(
            TIER_ANALYTIC
        ) == report.num_requests

    def test_format_table_includes_tier_section_when_enabled(self):
        report = self._report(0.5)
        text = report.format_table()
        assert "fidelity tiers" in text
        assert "per-tier p50/p99" in text
        summary = report.summary()
        assert summary["executed_batch_fraction"] == report.executed_batch_fraction
        assert summary["executed_p99_latency_s"] == report.tier_latency_percentile_s(
            TIER_EXECUTED, 99.0
        )

    def test_merge_preserves_tier_columns(self):
        a, b = self._report(1.0), self._report(0.0)
        merged = ServingReport.merge([a, b])
        assert merged.tiering_enabled
        assert merged.num_batches_in_tier(TIER_EXECUTED) == a.num_batches
        assert merged.num_batches_in_tier(TIER_ANALYTIC) == b.num_batches
        # request tiers gather through the merged batch indices correctly
        assert merged.num_requests_in_tier(TIER_EXECUTED) == a.num_requests

    def test_linear_wrapped_tiered_fleet_reports_its_tiers(self):
        # the wrapper prices each batch with one tiered call: the report's
        # tier column and the profile's tier counters must see through it
        fleet = ChipFleet(LinearServiceModel(_tiered(1.0, seed=1)), num_chips=2)
        requests = PoissonArrivals(800.0, seq_len=128, seed=1).generate(300)
        simulator = ServingSimulator(
            fleet, DynamicBatcher(max_batch_size=4, max_wait_s=1e-3)
        )
        report = simulator.run(requests)
        assert (report.batches.tier == TIER_EXECUTED).all()
        assert simulator.last_profile.executed_batches == report.num_batches
        assert simulator.last_profile.analytic_batches == 0

    def test_profile_counts_tiers_templates_and_pricing(self):
        fleet = ChipFleet(_tiered(0.5, seed=1), num_chips=2)
        requests = PoissonArrivals(800.0, seq_len=128, seed=1).generate(200)
        simulator = ServingSimulator(
            fleet, DynamicBatcher(max_batch_size=8, max_wait_s=1e-3)
        )
        report = simulator.run(requests)
        profile = simulator.last_profile
        assert profile.executed_batches == report.num_batches_in_tier(TIER_EXECUTED)
        assert profile.analytic_batches == report.num_batches_in_tier(TIER_ANALYTIC)
        assert profile.template_hits == profile.executed_batches  # all prebuilt
        assert profile.template_misses == 0
        # and the formatted profiler table carries the new columns
        from repro.serving import Profiler

        profiler = Profiler()
        profiler.enabled = True
        profiler.record(profile)
        assert "tiers a/x" in profiler.format_table()


class TestFaultsControlPlaneComposition:
    def test_faults_compose_with_autoscaler(self):
        from repro.serving.autoscale import Autoscaler

        fleet = ChipFleet(
            FixedServiceModel(1e-3, idle_power_w=0.1, sleep_power_w=0.01),
            num_chips=2,
        )
        report = ServingSimulator(
            fleet,
            faults=FaultInjector(mtbf_s=0.05, detection_s=0.01, repair_s=0.01),
            autoscaler=Autoscaler(interval_s=0.01),
        ).run(PoissonArrivals(800.0, seed=1).generate(500))
        assert report.faults_enabled and report.autoscale_enabled
        assert report.num_failures > 0
        assert report.num_scale_events > 0
        assert report.num_offered == 500

    def test_faults_compose_with_edf(self):
        fleet = ChipFleet(FixedServiceModel(1e-3), num_chips=2)
        requests = [
            replace(r, deadline_s=5e-3 if r.index % 2 else 1.0)
            for r in PoissonArrivals(1500.0, seed=2).generate(500)
        ]
        report = ServingSimulator(
            fleet,
            DynamicBatcher.edf(max_batch_size=4, max_wait_s=1e-3),
            faults=FaultInjector(mtbf_s=0.05, detection_s=0.01, repair_s=0.01),
        ).run(requests)
        assert report.num_failures > 0
        assert report.num_retries > 0
        assert report.num_offered == 500
