"""Cross-validation: executed schedules vs the analytical pipeline formulas.

With one server per stage the event-driven executor and the closed-form
model describe the identical system, so they must agree *exactly* (both
granularities).  With stream/engine pools the analytical model approximates
a ``k``-wide pool as one ``k``-times-faster server; the executor keeps the
discrete servers, and the two must agree within a small tolerance
(differences are pipeline-fill and handoff-amortisation terms, which vanish
as the row count grows).
"""

from __future__ import annotations

import pytest

from repro.core.accelerator import STARAccelerator
from repro.core.config import PipelineConfig
from repro.core.pipeline import AttentionPipeline, StageTiming
from repro.core.scheduler import PipelineExecutor
from repro.nn.bert import BertWorkload

TIMINGS = [
    pytest.param((100e-9, 150e-9, 100e-9), id="softmax-bound"),
    pytest.param((10e-9, 500e-9, 10e-9), id="softmax-dominant"),
    pytest.param((100e-9, 100e-9, 100e-9), id="balanced"),
    pytest.param((250e-9, 40e-9, 90e-9), id="score-bound"),
    pytest.param((90e-9, 40e-9, 250e-9), id="context-bound"),
    pytest.param((0.0, 50e-9, 10e-9), id="free-score-stage"),
]
ROW_COUNTS = (1, 7, 64, 257)
HANDOFFS = (0.0, 2e-9)


class TestExactSingleServer:
    """One server per stage: executed == analytical, bit for bit."""

    @pytest.mark.parametrize("stage_times", TIMINGS)
    @pytest.mark.parametrize("rows", ROW_COUNTS)
    @pytest.mark.parametrize("handoff", HANDOFFS)
    def test_vector_grained_exact(self, stage_times, rows, handoff):
        timing = StageTiming(*stage_times, num_rows=rows)
        config = PipelineConfig(stage_handoff_s=handoff)
        executed = PipelineExecutor(config).execute(timing)
        analytical = AttentionPipeline(config).vector_grained_latency(timing)
        assert executed.total_latency_s == pytest.approx(
            analytical.total_latency_s, rel=1e-12, abs=1e-18
        )

    @pytest.mark.parametrize("stage_times", TIMINGS)
    @pytest.mark.parametrize("rows", ROW_COUNTS)
    @pytest.mark.parametrize("handoff", HANDOFFS)
    def test_operand_grained_exact(self, stage_times, rows, handoff):
        timing = StageTiming(*stage_times, num_rows=rows)
        config = PipelineConfig(stage_handoff_s=handoff)
        executed = PipelineExecutor(config).execute(timing, "operand")
        analytical = AttentionPipeline(config).operand_grained_latency(timing)
        assert executed.total_latency_s == pytest.approx(
            analytical.total_latency_s, rel=1e-12, abs=1e-18
        )

    @pytest.mark.parametrize("stage_times", TIMINGS)
    def test_steady_interval_matches_formula(self, stage_times):
        timing = StageTiming(*stage_times, num_rows=512)
        config = PipelineConfig(stage_handoff_s=2e-9)
        executed = PipelineExecutor(config).execute(timing)
        assert executed.steady_state_interval_s == pytest.approx(
            timing.bottleneck_row_s + 2e-9, rel=1e-9
        )


class TestPooledResources:
    """Discrete pools vs the analytical rate-scaling approximation."""

    POOLS = [
        pytest.param((1, 1), id="degenerate"),
        pytest.param((2, 4), id="small"),
        pytest.param((4, 16), id="medium"),
        pytest.param((12, 64), id="star-default"),
    ]

    @pytest.mark.parametrize("stage_times", TIMINGS[:5])
    @pytest.mark.parametrize("pools", POOLS)
    def test_vector_grained_within_tolerance_no_handoff(self, stage_times, pools):
        # handoff-free: the only executed-vs-analytical difference is the
        # pipeline fill (native stage times vs rate-scaled ones), which is
        # bounded by sum(stage_times) and tiny against 1536 steady rows
        streams, engines = pools
        score, softmax, context = stage_times
        rows = 1536
        native = StageTiming(score, softmax, context, num_rows=rows)
        aggregate = StageTiming(
            score / streams, softmax / engines, context / streams, num_rows=rows
        )
        config = PipelineConfig(stage_handoff_s=0.0)
        executed = PipelineExecutor(
            config, streams=streams, softmax_engines=engines
        ).execute(native)
        analytical = AttentionPipeline(config).vector_grained_latency(aggregate)
        assert executed.total_latency_s == pytest.approx(
            analytical.total_latency_s, rel=0.03
        )

    @pytest.mark.parametrize("stage_times", TIMINGS[:5])
    @pytest.mark.parametrize("pools", POOLS)
    def test_vector_grained_within_tolerance_with_handoff(self, stage_times, pools):
        # the analytical rate model charges the full handoff per aggregate
        # row while a k-wide pool amortises its forwards k ways, so the
        # models only agree where handoff << per-server interval — the
        # regime real stage timings live in (microseconds vs 2 ns)
        streams, engines = pools
        score, softmax, context = (t * 100 for t in stage_times)
        rows = 1536
        native = StageTiming(score, softmax, context, num_rows=rows)
        aggregate = StageTiming(
            score / streams, softmax / engines, context / streams, num_rows=rows
        )
        config = PipelineConfig(stage_handoff_s=2e-9)
        executed = PipelineExecutor(
            config, streams=streams, softmax_engines=engines
        ).execute(native)
        analytical = AttentionPipeline(config).vector_grained_latency(aggregate)
        assert executed.total_latency_s == pytest.approx(
            analytical.total_latency_s, rel=0.05
        )

    @pytest.mark.parametrize("pools", POOLS)
    def test_operand_grained_matches_when_rows_divide(self, pools):
        # with the row count divisible by every pool size the discrete
        # operand phases have no ragged final wave: the coarse formula is
        # reproduced exactly even with pools
        streams, engines = pools
        rows = 1536  # divisible by 1, 2, 4, 12, 16, 64
        native = StageTiming(100e-9, 150e-9, 100e-9, num_rows=rows)
        aggregate = StageTiming(
            100e-9 / streams, 150e-9 / engines, 100e-9 / streams, num_rows=rows
        )
        config = PipelineConfig(stage_handoff_s=2e-9)
        executed = PipelineExecutor(
            config, streams=streams, softmax_engines=engines
        ).execute(native, "operand")
        analytical = AttentionPipeline(config).operand_grained_latency(aggregate)
        assert executed.total_latency_s == pytest.approx(
            analytical.total_latency_s, rel=1e-12
        )


class TestBertShapes:
    """The E7 acceptance criterion on real BERT-base stage timings."""

    @pytest.mark.parametrize("seq_len", (128, 256, 512))
    def test_executed_speedup_within_5_percent(self, seq_len):
        star = STARAccelerator()
        workload = BertWorkload(seq_len=seq_len)
        timing = star.attention_stage_timing(workload)
        analytical_speedup = (
            star.pipeline.operand_grained_latency(timing).total_latency_s
            / star.pipeline.vector_grained_latency(timing).total_latency_s
        )
        vector = star.executed_attention_schedule(workload, granularity="vector")
        operand = star.executed_attention_schedule(workload, granularity="operand")
        executed_speedup = operand.total_latency_s / vector.total_latency_s
        assert executed_speedup == pytest.approx(analytical_speedup, rel=0.05)

    @pytest.mark.parametrize("num_engines", (8, 32, 64, 128))
    def test_executed_latency_tracks_engine_count(self, num_engines):
        star = STARAccelerator(num_softmax_engines=num_engines)
        workload = BertWorkload(seq_len=128)
        analytical = star.pipeline.vector_grained_latency(
            star.attention_stage_timing(workload)
        )
        executed = star.executed_attention_schedule(workload, granularity="vector")
        assert executed.total_latency_s == pytest.approx(
            analytical.total_latency_s, rel=0.05
        )

    @pytest.mark.parametrize("num_tiles", (8, 24, 96))
    def test_executed_latency_tracks_tile_budget(self, num_tiles):
        from repro.core.config import MatMulEngineConfig, STARConfig

        config = STARConfig(matmul=MatMulEngineConfig(num_tiles=num_tiles))
        star = STARAccelerator(config)
        workload = BertWorkload(seq_len=128)
        analytical = star.pipeline.vector_grained_latency(
            star.attention_stage_timing(workload)
        )
        executed = star.executed_attention_schedule(workload, granularity="vector")
        assert executed.total_latency_s == pytest.approx(
            analytical.total_latency_s, rel=0.05
        )
