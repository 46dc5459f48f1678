"""Unit tests of the request-level serving simulator and its report."""

from __future__ import annotations

import pytest

from repro.serving import (
    ChipFleet,
    DynamicBatcher,
    FixedServiceModel,
    NO_BATCHING,
    PoissonArrivals,
    Request,
    ServingSimulator,
    StarServiceModel,
    TraceArrivals,
)


def fixed_fleet(num_chips=1, service=1.0, energy=2.0, speedups=None):
    return ChipFleet(
        FixedServiceModel(request_latency_s=service, request_energy_j=energy),
        num_chips=num_chips,
        speedups=speedups,
    )


class TestSingleRequests:
    def test_one_request(self):
        report = ServingSimulator(fixed_fleet(), NO_BATCHING).run(
            [Request(index=0, arrival_s=0.5, seq_len=128)]
        )
        record = report.requests[0]
        assert record.dispatch_s == pytest.approx(0.5)
        assert record.completion_s == pytest.approx(1.5)
        assert record.wait_s == pytest.approx(0.0)
        assert report.throughput_rps == pytest.approx(1.0)
        assert report.energy_per_query_j == pytest.approx(2.0)

    def test_back_to_back_requests_queue(self):
        # both arrive before the first finishes: the second waits
        requests = [
            Request(index=0, arrival_s=0.0, seq_len=128),
            Request(index=1, arrival_s=0.1, seq_len=128),
        ]
        report = ServingSimulator(fixed_fleet(), NO_BATCHING).run(requests)
        first, second = sorted(report.requests, key=lambda r: r.index)
        assert first.completion_s == pytest.approx(1.0)
        assert second.dispatch_s == pytest.approx(1.0)
        assert second.wait_s == pytest.approx(0.9)
        assert report.queue_peak == 1

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError):
            ServingSimulator(fixed_fleet(), NO_BATCHING).run([])

    def test_unsorted_arrivals_served_in_arrival_order(self):
        requests = [
            Request(index=0, arrival_s=2.0, seq_len=128),
            Request(index=1, arrival_s=0.0, seq_len=128),
        ]
        report = ServingSimulator(fixed_fleet(), NO_BATCHING).run(requests)
        dispatch_order = [r.index for r in report.requests]
        assert dispatch_order == [1, 0]


class TestBatching:
    def test_full_batch_dispatches_together(self):
        requests = [Request(index=i, arrival_s=0.001 * i, seq_len=128) for i in range(4)]
        batcher = DynamicBatcher(max_batch_size=4, max_wait_s=10.0)
        report = ServingSimulator(fixed_fleet(), batcher).run(requests)
        assert report.num_batches == 1
        batch = report.batches[0]
        # the batch leaves when its fourth member arrives, not at the timeout
        assert batch.dispatch_s == pytest.approx(0.003)
        assert batch.size == 4
        assert all(r.completion_s == pytest.approx(batch.completion_s) for r in report.requests)

    def test_timeout_releases_partial_batch(self):
        requests = [Request(index=0, arrival_s=0.0, seq_len=128)]
        batcher = DynamicBatcher(max_batch_size=8, max_wait_s=0.25)
        report = ServingSimulator(fixed_fleet(), batcher).run(requests)
        assert report.num_batches == 1
        assert report.batches[0].dispatch_s == pytest.approx(0.25)
        assert report.batches[0].size == 1

    def test_zero_wait_dispatches_whatever_is_queued(self):
        # chip busy until t=1 while three requests accumulate; at the free
        # they all leave as one batch despite max_wait_s == 0
        requests = [Request(index=0, arrival_s=0.0, seq_len=128)] + [
            Request(index=i, arrival_s=0.5, seq_len=128) for i in (1, 2, 3)
        ]
        batcher = DynamicBatcher(max_batch_size=8, max_wait_s=0.0)
        report = ServingSimulator(fixed_fleet(), batcher).run(requests)
        assert report.num_batches == 2
        assert report.batches[1].size == 3
        assert report.batches[1].dispatch_s == pytest.approx(1.0)

    def test_batch_pads_to_longest_member(self):
        trace = TraceArrivals([0.0, 0.0], per_request_lens=[64, 256])
        fleet = ChipFleet(StarServiceModel(), num_chips=1)
        batcher = DynamicBatcher(max_batch_size=2, max_wait_s=0.0)
        report = ServingSimulator(fleet, batcher).run(trace.generate())
        assert report.num_batches == 1
        assert report.batches[0].seq_len == 256

    def test_mean_batch_size(self):
        requests = [Request(index=i, arrival_s=0.0, seq_len=128) for i in range(6)]
        batcher = DynamicBatcher(max_batch_size=4, max_wait_s=0.0)
        report = ServingSimulator(fixed_fleet(), batcher).run(requests)
        assert report.num_batches == 2
        assert report.mean_batch_size == pytest.approx(3.0)


class TestFleet:
    def test_two_chips_serve_in_parallel(self):
        requests = [
            Request(index=0, arrival_s=0.0, seq_len=128),
            Request(index=1, arrival_s=0.0, seq_len=128),
        ]
        report = ServingSimulator(fixed_fleet(num_chips=2), NO_BATCHING).run(requests)
        assert {r.chip for r in report.requests} == {0, 1}
        assert all(r.wait_s == pytest.approx(0.0) for r in report.requests)
        assert report.makespan_s == pytest.approx(1.0)

    def test_speedup_scales_service_and_energy(self):
        requests = [Request(index=0, arrival_s=0.0, seq_len=128)]
        fleet = fixed_fleet(num_chips=1, service=1.0, energy=2.0, speedups=(4.0,))
        report = ServingSimulator(fleet, NO_BATCHING).run(requests)
        assert report.batches[0].service_s == pytest.approx(0.25)
        assert report.batches[0].energy_j == pytest.approx(0.5)

    def test_utilization_and_busy_time(self):
        requests = [
            Request(index=0, arrival_s=0.0, seq_len=128),
            Request(index=1, arrival_s=1.0, seq_len=128),
        ]
        report = ServingSimulator(fixed_fleet(num_chips=2), NO_BATCHING).run(requests)
        # both requests run on chip 0 (it is idle each time an arrival lands)
        assert report.chip_busy_s[0] == pytest.approx(2.0)
        assert report.chip_busy_s[1] == pytest.approx(0.0)
        assert report.chip_utilization(0) == pytest.approx(1.0)
        assert report.mean_utilization == pytest.approx(0.5)

    def test_fleet_validation(self):
        with pytest.raises(ValueError):
            fixed_fleet(num_chips=0)
        with pytest.raises(ValueError):
            fixed_fleet(num_chips=2, speedups=(1.0,))
        with pytest.raises(ValueError):
            fixed_fleet(num_chips=1, speedups=(-1.0,))


class TestReportMetrics:
    def test_percentiles_are_ordered(self):
        requests = PoissonArrivals(800.0, seed=11).generate(2000)
        report = ServingSimulator(fixed_fleet(service=1e-3), NO_BATCHING).run(requests)
        assert report.p50_latency_s <= report.p95_latency_s <= report.p99_latency_s
        assert report.mean_latency_s >= 1e-3  # at least one service time

    def test_summary_keys_match_format_table(self):
        requests = PoissonArrivals(100.0, seed=0).generate(50)
        report = ServingSimulator(fixed_fleet(service=1e-3), NO_BATCHING).run(requests)
        summary = report.summary()
        assert summary["num_requests"] == 50
        assert "p99_latency_s" in summary
        text = report.format_table()
        assert "p50/p95/p99" in text and "energy per query" in text

    def test_star_service_model_caches(self):
        from repro.serving import PricingCache

        cache = PricingCache(maxsize=8)
        model = StarServiceModel(cache=cache)
        first = model.batch_latency_s(2, 128)
        assert model.batch_latency_s(2, 128) == first
        assert len(cache) == 1 and cache.hits == 1 and cache.misses == 1
        # an identically-configured model shares the priced shape...
        twin = StarServiceModel(cache=cache)
        assert twin.batch_latency_s(2, 128) == first
        assert len(cache) == 1 and cache.hits == 2
        # ...while a differently-configured one can never collide
        from repro.core.accelerator import STARAccelerator
        from repro.core.batch_cost import BatchCostModel

        other = StarServiceModel(
            STARAccelerator(batch_cost=BatchCostModel(double_buffering=False)), cache=cache
        )
        assert other.batch_latency_s(2, 128) != first
        assert len(cache) == 2

    def test_pricing_cache_is_bounded(self):
        from repro.serving import PricingCache

        cache = PricingCache(maxsize=4)
        model = StarServiceModel(cache=cache)
        for batch in range(1, 8):
            model.batch_latency_s(batch, 64)
        assert len(cache) == 4  # LRU-evicted down to the bound
        # the evicted shape re-prices to the same deterministic value
        assert model.batch_latency_s(1, 64) == StarServiceModel(
            cache=PricingCache(maxsize=4)
        ).batch_latency_s(1, 64)
