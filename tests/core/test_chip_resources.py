"""Tests for ChipResources, whole-model executed schedules and request timing."""

from __future__ import annotations

import pytest

from repro.core.accelerator import ChipResources, STARAccelerator
from repro.core.config import MatMulEngineConfig, STARConfig
from repro.nn.bert import BertWorkload


class TestChipResources:
    def test_accelerator_delegates_to_resources(self):
        star = STARAccelerator()
        assert star.power_w(128) == pytest.approx(star.resources.power_w(128))
        assert star.area_mm2() == pytest.approx(star.resources.area_mm2())
        assert star.matmul_engine is star.resources.matmul_engine
        assert star.softmax_engine is star.resources.softmax_engine

    def test_shared_resources_between_accelerators(self):
        resources = ChipResources(num_softmax_engines=16)
        a = STARAccelerator(resources=resources)
        b = STARAccelerator(resources=resources)
        assert a.matmul_engine is b.matmul_engine
        assert a.num_softmax_engines == b.num_softmax_engines == 16

    def test_conflicting_config_and_resources_rejected(self):
        resources = ChipResources()
        with pytest.raises(ValueError):
            STARAccelerator(config=STARConfig(), resources=resources)

    def test_conflicting_engines_or_overhead_with_resources_rejected(self):
        from dataclasses import replace

        from repro.arch.system import DEFAULT_SYSTEM_OVERHEAD, SystemOverheadModel

        resources = ChipResources(num_softmax_engines=16)
        with pytest.raises(ValueError):
            STARAccelerator(num_softmax_engines=32, resources=resources)
        with pytest.raises(ValueError):
            STARAccelerator(system_overhead=SystemOverheadModel(), resources=resources)
        # a passed value that equals the constructor default still conflicts
        with pytest.raises(ValueError, match="num_softmax_engines=64"):
            STARAccelerator(num_softmax_engines=64, resources=resources)
        hot = ChipResources(system_overhead=replace(DEFAULT_SYSTEM_OVERHEAD, io_power_w=40.0))
        with pytest.raises(ValueError, match="system_overhead"):
            STARAccelerator(system_overhead=DEFAULT_SYSTEM_OVERHEAD, resources=hot)
        # restating the resources' own values is not a conflict
        star = STARAccelerator(num_softmax_engines=16, resources=resources)
        assert star.num_softmax_engines == 16
        star = STARAccelerator(system_overhead=hot.system_overhead, resources=hot)
        assert star.system_overhead is hot.system_overhead

    def test_executor_matches_workload_allocation(self):
        resources = ChipResources(STARConfig(matmul=MatMulEngineConfig(num_tiles=24)))
        workload = BertWorkload(seq_len=128)
        executor = resources.executor(workload)
        assert executor.streams == resources.attention_streams(12, 1) == 12
        assert executor.softmax_engines == resources.num_softmax_engines

    def test_invalid_engine_count(self):
        with pytest.raises(ValueError):
            ChipResources(num_softmax_engines=0)


class TestModelSchedule:
    def test_matches_scaled_single_layer_without_jitter(self):
        star = STARAccelerator()
        workload = BertWorkload(seq_len=128)
        model = star.executed_model_schedule(workload)
        layer = star.layer_latency_breakdown(workload)
        attention = star.executed_attention_schedule(workload).total_latency_s
        assert model.num_layers == workload.config.num_layers
        # at batch 1 the executed GEMMs land on the closed forms, so only the
        # attention chain differs from the analytic layer
        executed_layer = layer.total_s - layer.attention_pipeline_s + attention
        assert model.total_latency_s == pytest.approx(
            workload.config.num_layers * executed_layer, rel=1e-12
        )

    def test_layers_reuse_one_execution(self):
        star = STARAccelerator()
        model = star.executed_model_schedule(BertWorkload(seq_len=32))
        first = model.attention_schedules[0]
        assert all(schedule is first for schedule in model.attention_schedules)

    def test_softmax_utilization_is_a_fraction(self):
        star = STARAccelerator()
        model = star.executed_model_schedule(BertWorkload(seq_len=64))
        assert 0.0 < model.softmax_utilization() <= 1.0
        attention = sum(layer.attention_pipeline_s for layer in model.layers)
        assert attention < model.total_latency_s


class TestRequestTiming:
    def test_consistent_with_inference_latency_and_power(self):
        star = STARAccelerator()
        workload = BertWorkload(seq_len=128, batch_size=4)
        timing = star.request_timing(workload)
        assert timing.latency_s == pytest.approx(star.inference_latency_s(workload))
        # energy is charged at the serialized-equivalent rate: the wall
        # clock double-buffering saves removes no conversions
        from repro.core.batch_cost import BatchCostModel

        serialized = STARAccelerator(batch_cost=BatchCostModel(double_buffering=False))
        assert timing.energy_j == pytest.approx(
            star.power_w(128) * serialized.inference_latency_s(workload)
        )
        assert timing.energy_j > star.power_w(128) * timing.latency_s

    def test_batch_one_energy_is_power_times_latency(self):
        star = STARAccelerator()
        workload = BertWorkload(seq_len=128)
        timing = star.request_timing(workload)
        assert timing.energy_j == star.power_w(128) * timing.latency_s

    def test_batch_energy_never_amortises_streaming(self):
        from repro.core.batch_cost import BatchCostModel

        streamed = STARAccelerator(batch_cost=BatchCostModel.streamed())
        resident = STARAccelerator()
        single = streamed.request_timing(BertWorkload(seq_len=128)).energy_j
        programming = single - resident.request_timing(BertWorkload(seq_len=128)).energy_j
        assert programming > 0
        for batch in (4, 8):
            workload = BertWorkload(seq_len=128, batch_size=batch)
            batched = streamed.request_timing(workload).energy_j
            # the one-time programming charge rides once per batch on top of
            # the resident streaming energy, whatever the batch size
            assert batched == pytest.approx(
                resident.request_timing(workload).energy_j + programming
            )
            # energy grows with the batch and amortises only per request
            assert single < batched <= batch * single
            assert batched / batch < single

    def test_workload_request_helpers(self):
        workload = BertWorkload(seq_len=128)
        batched = workload.with_batch(8).with_seq_len(256)
        assert batched.batch_size == 8 and batched.seq_len == 256
        assert batched.config is workload.config
