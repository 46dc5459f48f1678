"""Cross-validation of the analytical batch formulas against executed schedules.

The same discipline PR 3 applied to the batch-1 attention pipeline, one
level up: for batch sizes 1 / 4 / 16 / 32 on BERT shapes, the event-driven
executions (tile-task GEMM schedules and the whole-model executed path)
must agree with the new closed-form batch pricing within 5% — and at batch
1 the default pricing must stay bit-identical to the pre-refactor goldens.
"""

from __future__ import annotations

import pytest

from repro.core.accelerator import STARAccelerator
from repro.core.batch_cost import BatchCostModel, BatchGEMMExecutor, DEFAULT_BATCH_COST
from repro.core.matmul_engine import GEMMShape
from repro.nn.bert import BertConfig, BertWorkload

BATCHES = (1, 4, 16, 32)

#: Pre-refactor whole-model goldens (float hex, recorded on the seed tree).
SEED_INFERENCE_HEX = {
    ("analytical", 64): "0x1.99d7abb0c4efcp-10",
    ("analytical", 128): "0x1.cbf43f148368ep-9",
    ("executed", 64): "0x1.9b91c6856dba1p-10",
    ("executed", 128): "0x1.cb2495b163acfp-9",
}
SEED_REQUEST_HEX = {
    "latency": "0x1.cbf43f148368ep-9",
    "energy": "0x1.2bf4b00fb09d4p-5",
}


class TestBatchOneGoldens:
    @pytest.mark.parametrize("schedule,seq_len", sorted(SEED_INFERENCE_HEX))
    def test_inference_latency_bit_identical_to_seed(self, schedule, seq_len):
        star = STARAccelerator()
        workload = BertWorkload(seq_len=seq_len)
        if schedule == "executed":
            value = star.executed_model_schedule(workload).total_latency_s
        else:
            value = star.inference_latency_s(workload)
        assert value.hex() == SEED_INFERENCE_HEX[(schedule, seq_len)]

    def test_request_timing_bit_identical_to_seed(self):
        timing = STARAccelerator().request_timing(BertWorkload(seq_len=128))
        assert timing.latency_s.hex() == SEED_REQUEST_HEX["latency"]
        assert timing.energy_j.hex() == SEED_REQUEST_HEX["energy"]

    def test_legacy_model_is_bit_identical_at_every_batch_to_old_formula(self):
        # the linear cost model (resident weights, no double buffering) IS
        # the pre-refactor pricing: scaling the per-request shape by the
        # batch reproduces it exactly
        linear = BatchCostModel(double_buffering=False)
        star = STARAccelerator(batch_cost=linear)
        engine = star.matmul_engine
        for batch in BATCHES:
            workload = BertWorkload(seq_len=128, batch_size=batch)
            tokens = batch * 128
            old_projection = 4 * engine.gemm_latency_s(
                GEMMShape(m=tokens, k=768, n=768), cost_model=linear
            )
            breakdown = star.layer_latency_breakdown(workload)
            assert breakdown.projection_s == old_projection
            assert breakdown.programming_s == 0.0


class TestExecutedGEMMAgreesWithFormulas:
    @pytest.mark.parametrize("batch", BATCHES)
    @pytest.mark.parametrize(
        "dims", [(32, 768, 768), (32, 768, 3072), (32, 3072, 768)]
    )
    def test_bert_gemms_within_5_percent(self, dims, batch):
        shape = GEMMShape(*dims)
        for model in (DEFAULT_BATCH_COST, BatchCostModel.streamed()):
            star = STARAccelerator(batch_cost=model)
            executed = BatchGEMMExecutor(star.matmul_engine, model).execute(
                shape, batch_size=batch
            )
            analytic = star.matmul_engine.gemm_latency_s(
                shape, batch_size=batch, cost_model=model
            )
            assert executed.total_latency_s == pytest.approx(analytic, rel=0.05)

    @pytest.mark.parametrize("batch", BATCHES)
    def test_divisible_bert_gemms_exact(self, batch):
        # 36 tiles * 32 rows divide the 96-tile bank: the event-driven
        # schedule completes in full waves and lands exactly on the formula
        shape = GEMMShape(m=32, k=768, n=768)
        star = STARAccelerator(batch_cost=BatchCostModel.streamed())
        executed = BatchGEMMExecutor(star.matmul_engine, star.batch_cost).execute(
            shape, batch_size=batch
        )
        analytic = star.matmul_engine.gemm_latency_s(
            shape, batch_size=batch, cost_model=star.batch_cost
        )
        assert executed.total_latency_s == pytest.approx(analytic, rel=1e-12)


class TestExecutedModelAgreesWithAnalytical:
    @pytest.mark.parametrize("batch", BATCHES)
    def test_whole_model_within_5_percent(self, batch):
        config = BertConfig(num_layers=2)
        workload = BertWorkload(config=config, seq_len=64, batch_size=batch)
        for model in (DEFAULT_BATCH_COST, BatchCostModel.streamed()):
            star = STARAccelerator(batch_cost=model)
            a = star.inference_latency_s(workload)
            e = star.executed_model_schedule(workload).total_latency_s
            assert e == pytest.approx(a, rel=0.05)

    def test_executed_batch_service_is_sublinear(self):
        config = BertConfig(num_layers=2)
        star = STARAccelerator(batch_cost=BatchCostModel.streamed())
        single = star.executed_model_schedule(
            BertWorkload(config=config, seq_len=64)
        ).total_latency_s
        batched = star.executed_model_schedule(
            BertWorkload(config=config, seq_len=64, batch_size=32)
        ).total_latency_s
        assert batched <= 0.6 * 32 * single
