"""Tests for fleet heterogeneity, idle-power accounting and linear pricing.

The regression the roadmap asked for: a fleet mixing chips with different
``ChipResources`` (tile counts), not just scalar speedups, must show the
expected per-chip utilization split — and energy per query must include
idle/leakage power over the makespan while keeping the active-only figure.
"""

from __future__ import annotations

import pickle

import pytest

from repro.core.accelerator import STARAccelerator
from repro.core.batch_cost import BatchCostModel
from repro.core.config import MatMulEngineConfig, STARConfig
from repro.nn.bert import BertConfig
from repro.serving import (
    ChipFleet,
    FixedServiceModel,
    LinearServiceModel,
    NO_BATCHING,
    PoissonArrivals,
    PricingCache,
    Request,
    ServingSimulator,
    StarServiceModel,
)

SMALL_BERT = BertConfig(num_layers=2)


def star_model(num_tiles: int, cache: PricingCache) -> StarServiceModel:
    accelerator = STARAccelerator(
        STARConfig(matmul=MatMulEngineConfig(num_tiles=num_tiles)),
        batch_cost=BatchCostModel.streamed(),
    )
    return StarServiceModel(accelerator=accelerator, bert_config=SMALL_BERT, cache=cache)


class TestHeterogeneousFleets:
    def test_mixed_tile_counts_split_utilization_as_expected(self):
        cache = PricingCache()
        big = star_model(96, cache)
        small = star_model(16, cache)
        # a 16-tile chip needs more waves per GEMM, so the same batch
        # occupies it strictly longer than the 96-tile chip
        assert small.batch_latency_s(1, 64) > big.batch_latency_s(1, 64)
        fleet = ChipFleet(service_models=[big, small])
        requests = PoissonArrivals(
            0.5 / small.batch_latency_s(1, 64), seq_len=64, seed=5
        ).generate(400)
        report = ServingSimulator(fleet, NO_BATCHING).run(requests)
        assert report.num_requests == 400
        # both chips work, their utilizations differ, and the big-tile chip
        # turns requests around faster so it completes more of them
        utils = [report.chip_utilization(c) for c in range(2)]
        assert utils[0] > 0 and utils[1] > 0
        assert utils[0] != pytest.approx(utils[1], rel=0.05)
        served_big = sum(1 for r in report.requests if r.chip == 0)
        served_small = sum(1 for r in report.requests if r.chip == 1)
        assert served_big > served_small

    def test_service_models_and_speedups_compose(self):
        base = FixedServiceModel(request_latency_s=1.0)
        fleet = ChipFleet(
            service_models=[base, FixedServiceModel(request_latency_s=2.0)],
            speedups=(1.0, 2.0),
        )
        assert fleet.batch_latency_s(0, 1, 128) == pytest.approx(1.0)
        assert fleet.batch_latency_s(1, 1, 128) == pytest.approx(1.0)  # 2.0 / 2x

    def test_fleet_argument_validation(self):
        base = FixedServiceModel(request_latency_s=1.0)
        with pytest.raises(ValueError):
            ChipFleet()  # neither form
        with pytest.raises(ValueError):
            ChipFleet(base, service_models=[base])  # both forms
        with pytest.raises(ValueError):
            ChipFleet(service_models=[])
        with pytest.raises(ValueError):
            ChipFleet(service_models=[base, base], num_chips=3)
        # num_chips inferred from the model sequence
        assert ChipFleet(service_models=[base, base]).num_chips == 2

    def test_non_service_model_rejected(self):
        class Priced:  # prices batches but declares no chip
            def batch_latency_s(self, batch_size, seq_len):
                return 1e-3

            def batch_energy_j(self, batch_size, seq_len):
                return 0.0

        with pytest.raises(TypeError, match="Priced"):
            ChipFleet(Priced(), num_chips=2)
        with pytest.raises(TypeError, match="is not a ServiceModel"):
            ChipFleet(service_models=[FixedServiceModel(1e-3), object()])


class TestIdlePower:
    def test_idle_energy_charged_over_unoccupied_time(self):
        model = FixedServiceModel(request_latency_s=1.0, request_energy_j=2.0, idle_power_w=0.5)
        requests = [
            Request(index=0, arrival_s=0.0, seq_len=128),
            Request(index=1, arrival_s=3.0, seq_len=128),
        ]
        report = ServingSimulator(ChipFleet(model), NO_BATCHING).run(requests)
        # makespan 4s, busy 2s -> 2s idle at 0.5 W = 1 J of leakage
        assert report.makespan_s == pytest.approx(4.0)
        assert report.idle_energy_j == pytest.approx(1.0)
        assert report.energy_j == pytest.approx(4.0)  # active only
        assert report.active_energy_per_query_j == pytest.approx(2.0)
        assert report.energy_per_query_j == pytest.approx(2.5)
        assert report.summary()["active_energy_per_query_j"] == pytest.approx(2.0)
        assert "active only" in report.format_table()

    def test_zero_idle_power_keeps_old_figures(self):
        model = FixedServiceModel(request_latency_s=1.0, request_energy_j=2.0)
        report = ServingSimulator(ChipFleet(model), NO_BATCHING).run(
            [Request(index=0, arrival_s=0.0, seq_len=128)]
        )
        assert report.idle_energy_j == 0.0
        assert report.energy_per_query_j == report.active_energy_per_query_j == 2.0

    def test_star_chip_declares_idle_power(self):
        model = star_model(96, PricingCache())
        assert model.idle_power_w == pytest.approx(
            0.1 * model.accelerator.power_w(128)
        )

    def test_low_load_energy_per_query_exceeds_active_only(self):
        model = star_model(96, PricingCache())
        service = model.batch_latency_s(1, 64)
        requests = PoissonArrivals(0.05 / service, seq_len=64, seed=1).generate(50)
        report = ServingSimulator(ChipFleet(model), NO_BATCHING).run(requests)
        # a ~5%-utilized chip leaks for most of the makespan
        assert report.energy_per_query_j > 2 * report.active_energy_per_query_j


class TestLinearServiceModel:
    def test_prices_batches_linearly(self):
        base = star_model(96, PricingCache())
        linear = LinearServiceModel(base)
        single = base.batch_latency_s(1, 64)
        assert linear.batch_latency_s(8, 64) == pytest.approx(8 * single)
        assert linear.batch_energy_j(8, 64) == pytest.approx(
            8 * base.batch_energy_j(1, 64)
        )
        assert linear.idle_power_w == base.idle_power_w
        # the batch-aware model beats its own linearization
        assert base.batch_latency_s(8, 64) < linear.batch_latency_s(8, 64)

    def test_star_batch_service_time_is_sublinear(self):
        base = star_model(96, PricingCache())
        single = base.batch_latency_s(1, 64)
        assert base.batch_latency_s(32, 64) <= 0.6 * 32 * single

    def test_system_overhead_is_part_of_the_cache_fingerprint(self):
        # energy rides the chip's power, which includes the system
        # overhead: models differing only there must never share entries
        from dataclasses import replace

        from repro.arch.system import DEFAULT_SYSTEM_OVERHEAD
        from repro.core.accelerator import ChipResources

        cache = PricingCache()
        base = StarServiceModel(cache=cache)
        hot = StarServiceModel(
            accelerator=STARAccelerator(
                resources=ChipResources(
                    system_overhead=replace(DEFAULT_SYSTEM_OVERHEAD, io_power_w=40.0)
                ),
                batch_cost=BatchCostModel.streamed(),
            ),
            cache=cache,
        )
        assert hot.batch_energy_j(1, 128) > base.batch_energy_j(1, 128)
        assert len(cache) == 2


class TestPricingKey:
    """Warm lookups key the shared cache by a per-configuration int slot."""

    SHAPES = ((1, 64), (4, 64), (4, 128))

    def test_identically_configured_models_share_a_slot(self):
        cache = PricingCache()
        first, twin, other = star_model(96, cache), star_model(96, cache), star_model(16, cache)
        assert first._slot == twin._slot != other._slot
        first.batch_latency_s(4, 64)
        twin.batch_latency_s(4, 64)
        assert (cache.hits, cache.misses, len(cache)) == (1, 1, 1)

    def test_pickled_model_and_cache_stay_consistent(self):
        cache = PricingCache()
        models = (star_model(96, cache), star_model(96, cache))
        priced = {
            shape: (models[0].batch_latency_s(*shape), models[0].batch_energy_j(*shape))
            for shape in self.SHAPES
        }
        # a shard task pickles its service models, and each model's cache with it
        shipped = pickle.loads(pickle.dumps(models))
        copied = shipped[0].cache
        assert copied is shipped[1].cache and copied is not cache
        hits, misses = copied.hits, copied.misses
        for shape, (latency, energy) in priced.items():
            assert shipped[1].batch_latency_s(*shape) == latency
            assert shipped[0].batch_energy_j(*shape) == energy
        assert (copied.hits, copied.misses) == (hits + 2 * len(priced), misses)
        # an identical model built after the unpickle shares the copied entries
        twin = star_model(96, copied)
        assert twin._slot == shipped[0]._slot
        assert twin.batch_latency_s(*self.SHAPES[0]) == priced[self.SHAPES[0]][0]
        assert copied.misses == misses

    def test_other_configuration_built_after_unpickle_never_reads_shipped_entries(self):
        cache = PricingCache()
        model = star_model(96, cache)
        priced = {shape: model.batch_latency_s(*shape) for shape in self.SHAPES}
        copied = pickle.loads(pickle.dumps(model)).cache
        other = star_model(16, copied)
        hits, misses = copied.hits, copied.misses
        for shape, latency in priced.items():
            assert other.batch_latency_s(*shape) != latency
        assert (copied.hits, copied.misses) == (hits, misses + len(priced))
        assert len(copied) == 2 * len(priced)
