"""Tests for the MatMul engine, pipeline models and the STAR accelerator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.accelerator import STARAccelerator
from repro.core.config import MatMulEngineConfig, PipelineConfig, STARConfig, SoftmaxEngineConfig
from repro.core.matmul_engine import GEMMShape, MatMulEngine, ProgrammedOperand
from repro.core.pipeline import AttentionPipeline, StageTiming, attention_streams
from repro.nn.bert import BertWorkload
from repro.utils.fixed_point import MRPC_FORMAT


class TestGEMMShape:
    def test_operations(self):
        assert GEMMShape(4, 8, 16).operations == 2 * 4 * 8 * 16

    def test_invalid(self):
        with pytest.raises(ValueError):
            GEMMShape(0, 1, 1)


class TestMatMulEngine:
    def small_engine(self, num_tiles=4):
        # 5 bits/cell keeps weight-quantisation error small enough to verify
        # the analog GEMM path functionally
        return MatMulEngine(
            MatMulEngineConfig(
                crossbar_rows=16,
                crossbar_cols=16,
                adc_bits=10,
                num_tiles=num_tiles,
                bits_per_cell=5,
            )
        )

    def test_functional_matmul_matches_numpy_shape_and_scale(self, rng):
        engine = self.small_engine()
        a = rng.normal(size=(4, 16))
        b = rng.normal(size=(16, 16))
        approx = engine.matmul(a, b)
        exact = a @ b
        assert approx.shape == exact.shape
        correlation = np.corrcoef(approx.ravel(), exact.ravel())[0, 1]
        assert correlation > 0.95

    def test_matmul_rejects_bad_shapes(self, rng):
        engine = self.small_engine()
        with pytest.raises(ValueError):
            engine.matmul(rng.normal(size=(2, 3)), rng.normal(size=(4, 2)))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_matmul_rejects_non_finite_activations(self, rng, value):
        """A non-finite activation used to come out as a NaN output row."""
        engine = self.small_engine()
        operand = engine.program_operand(rng.normal(size=(16, 16)))
        a = rng.normal(size=(3, 16))
        a[1, 5] = value
        with pytest.raises(ValueError, match=rf"got {value} at row 1, column 5"):
            engine.matmul(a, operand)
        assert engine.access_stats.vmm_ops == 0

    def test_gemm_tile_vmms_and_latency(self):
        engine = MatMulEngine(MatMulEngineConfig(num_tiles=96))
        shape = GEMMShape(m=128, k=768, n=768)
        # 6 x 6 tiles of 128x128, one VMM per input row per tile
        assert engine.gemm_tile_vmms(shape) == 6 * 6 * 128
        assert engine.gemm_latency_s(shape) > 0
        assert engine.gemm_batch_cost(shape).energy_j == pytest.approx(
            engine.gemm_tile_vmms(shape) * engine.tile_vmm_energy_j()
        )

    def test_duplication_speeds_up_small_gemms(self):
        dup = MatMulEngine(MatMulEngineConfig(num_tiles=96, allow_duplication=True))
        no_dup = MatMulEngine(MatMulEngineConfig(num_tiles=96, allow_duplication=False))
        shape = GEMMShape(m=128, k=128, n=128)
        assert dup.gemm_latency_s(shape) < no_dup.gemm_latency_s(shape)

    def test_more_tiles_never_slower(self):
        few = MatMulEngine(MatMulEngineConfig(num_tiles=8))
        many = MatMulEngine(MatMulEngineConfig(num_tiles=64))
        shape = GEMMShape(m=64, k=768, n=768)
        assert many.gemm_latency_s(shape) <= few.gemm_latency_s(shape)

    def test_row_latency_single_wave(self):
        engine = MatMulEngine(MatMulEngineConfig(num_tiles=96))
        shape = GEMMShape(m=1, k=64, n=128)
        assert engine.row_latency_s(shape) == pytest.approx(engine.tile_vmm_latency_s())

    def test_engine_level_costs(self):
        engine = MatMulEngine(MatMulEngineConfig(num_tiles=96))
        assert engine.area_mm2() > 0
        assert engine.peak_power_w() == pytest.approx(96 * engine.tile_power_w())

    def test_programming_costs(self):
        engine = MatMulEngine()
        shape = GEMMShape(m=1, k=128, n=128)
        assert engine.programming_energy_j(shape) > 0
        assert engine.programming_latency_s(shape) > 0


class TestTileBank:
    """The persistent-operand (weight-stationary) functional path."""

    def small_engine(self):
        return MatMulEngine(
            MatMulEngineConfig(
                crossbar_rows=16,
                crossbar_cols=16,
                adc_bits=10,
                num_tiles=4,
                bits_per_cell=5,
            )
        )

    def test_program_once_reuse_many(self, rng):
        engine = self.small_engine()
        b = rng.normal(size=(24, 20))  # ragged: 2x2 tile grid with padding
        operand = engine.program_operand(b)
        assert operand.shape == (24, 20)
        assert operand.num_tiles == 4
        pulses_after_programming = engine.access_stats.programming_pulses
        assert pulses_after_programming == 4 * 2 * 16 * 16  # differential pairs

        a = rng.normal(size=(6, 24))
        first = engine.matmul(a, operand)
        second = engine.matmul(a, operand)
        # reuse re-programs nothing and (with ideal devices) is deterministic
        assert engine.access_stats.programming_pulses == pulses_after_programming
        np.testing.assert_array_equal(first, second)

    def test_matmul_accepts_raw_matrix_and_programs_fresh_bank(self, rng):
        engine = self.small_engine()
        a = rng.normal(size=(4, 16))
        b = rng.normal(size=(16, 16))
        out = engine.matmul(a, b)
        assert out.shape == (4, 16)
        assert engine.access_stats.programming_pulses == 2 * 16 * 16
        engine.matmul(a, b)
        assert engine.access_stats.programming_pulses == 2 * 2 * 16 * 16

    def test_programmed_operand_matches_dynamic_path(self, rng):
        engine_static = self.small_engine()
        engine_dynamic = self.small_engine()
        a = rng.normal(size=(5, 24))
        b = rng.normal(size=(24, 20))
        operand = engine_static.program_operand(b)
        np.testing.assert_array_equal(
            engine_static.matmul(a, operand), engine_dynamic.matmul(a, b)
        )

    def test_accuracy_against_exact(self, rng):
        engine = self.small_engine()
        a = rng.normal(size=(8, 24))
        b = rng.normal(size=(24, 20))
        approx = engine.matmul(a, engine.program_operand(b))
        exact = a @ b
        correlation = np.corrcoef(approx.ravel(), exact.ravel())[0, 1]
        assert correlation > 0.95

    def test_read_stats_accumulate_per_matmul(self, rng):
        engine = self.small_engine()
        operand = engine.program_operand(rng.normal(size=(16, 16)))
        assert engine.access_stats.vmm_ops == 0
        engine.matmul(rng.normal(size=(3, 16)), operand)
        assert engine.access_stats.vmm_ops == 3  # one VMM per activation row per tile
        engine.matmul(rng.normal(size=(2, 16)), operand)
        assert engine.access_stats.vmm_ops == 5

    def test_stats_derived_energy_and_latency(self, rng):
        engine = self.small_engine()
        operand = engine.program_operand(rng.normal(size=(16, 16)))
        engine.matmul(rng.normal(size=(4, 16)), operand)
        stats = engine.access_stats
        assert engine.energy_j_of(stats) > 0
        assert engine.latency_s_of(stats) > 0
        # programming dominates the energy of a single small GEMM
        read_only = type(stats)(
            vmm_ops=stats.vmm_ops,
            array_activations=stats.array_activations,
            cell_reads=stats.cell_reads,
            adc_conversions=stats.adc_conversions,
            dac_conversions=stats.dac_conversions,
        )
        assert engine.energy_j_of(stats) > engine.energy_j_of(read_only)

    def test_matmul_rejects_mismatched_operand(self, rng):
        engine = self.small_engine()
        operand = engine.program_operand(rng.normal(size=(16, 16)))
        with pytest.raises(ValueError):
            engine.matmul(rng.normal(size=(3, 24)), operand)

    def test_failed_matmul_charges_no_programming(self, rng):
        engine = self.small_engine()
        with pytest.raises(ValueError):
            engine.matmul(rng.normal(size=(3, 24)), rng.normal(size=(16, 16)))
        assert engine.access_stats.programming_pulses == 0

    def test_one_dimensional_operand_rejected(self, rng):
        engine = self.small_engine()
        with pytest.raises(ValueError):
            engine.matmul(rng.normal(size=(3, 16)), rng.normal(size=16))
        with pytest.raises(ValueError):
            engine.program_operand(rng.normal(size=16))

    def test_operand_is_engine_agnostic_container(self, rng):
        operand = self.small_engine().program_operand(rng.normal(size=(16, 16)))
        assert isinstance(operand, ProgrammedOperand)
        assert operand.tiles[0].crossbar.is_programmed


class TestPipeline:
    def timing(self, score=100e-9, softmax=150e-9, context=100e-9, rows=64):
        return StageTiming(
            score_row_s=score, softmax_row_s=softmax, context_row_s=context, num_rows=rows
        )

    @staticmethod
    def speedup(pipeline, timing):
        """Vector-grained speedup over the operand-grained schedule."""
        return (
            pipeline.operand_grained_latency(timing).total_latency_s
            / pipeline.vector_grained_latency(timing).total_latency_s
        )

    def test_vector_faster_than_operand(self):
        pipeline = AttentionPipeline()
        timing = self.timing()
        assert self.speedup(pipeline, timing) > 1.0

    def test_vector_latency_approaches_bottleneck_rate(self):
        pipeline = AttentionPipeline(PipelineConfig(stage_handoff_s=0.0))
        timing = self.timing(rows=10000)
        schedule = pipeline.vector_grained_latency(timing)
        per_row = schedule.total_latency_s / timing.num_rows
        assert per_row == pytest.approx(timing.bottleneck_row_s, rel=0.01)

    def test_operand_latency_is_sum_of_stage_totals(self):
        pipeline = AttentionPipeline(PipelineConfig(stage_handoff_s=0.0))
        timing = self.timing()
        expected = timing.num_rows * timing.sum_row_s
        assert pipeline.operand_grained_latency(timing).total_latency_s == pytest.approx(expected)

    def test_speedup_bounded_by_three(self):
        pipeline = AttentionPipeline(PipelineConfig(stage_handoff_s=0.0))
        balanced = self.timing(100e-9, 100e-9, 100e-9, rows=10000)
        assert self.speedup(pipeline, balanced) == pytest.approx(3.0, rel=0.01)
        skewed = self.timing(10e-9, 500e-9, 10e-9, rows=10000)
        assert self.speedup(pipeline, skewed) < 1.2

    def test_configured_granularity_selects_schedule(self):
        timing = self.timing()
        vector = AttentionPipeline(PipelineConfig(granularity="vector")).latency(timing)
        operand = AttentionPipeline(PipelineConfig(granularity="operand")).latency(timing)
        assert vector.granularity == "vector"
        assert operand.granularity == "operand"
        assert vector.total_latency_s < operand.total_latency_s

    def test_attention_streams(self):
        assert attention_streams(12, 1, 96) == 12
        assert attention_streams(12, 1, 8) == 4
        assert attention_streams(12, 4, 96) == 48
        with pytest.raises(ValueError):
            attention_streams(0, 1, 96)

    def test_invalid_timing_and_config(self):
        with pytest.raises(ValueError):
            StageTiming(score_row_s=-1e-9, softmax_row_s=1, context_row_s=1, num_rows=1)
        with pytest.raises(ValueError):
            StageTiming(score_row_s=1, softmax_row_s=1, context_row_s=1, num_rows=0)
        with pytest.raises(ValueError):
            PipelineConfig(granularity="weird")

    def test_zero_latency_stage_is_a_valid_ablation_point(self):
        # regression: zero-cost stages (e.g. "softmax for free") used to be
        # rejected, blocking the ablation that isolates each stage's cost
        free_softmax = StageTiming(
            score_row_s=100e-9, softmax_row_s=0.0, context_row_s=100e-9, num_rows=64
        )
        pipeline = AttentionPipeline(PipelineConfig(stage_handoff_s=0.0))
        schedule = pipeline.vector_grained_latency(free_softmax)
        assert schedule.total_latency_s == pytest.approx(
            free_softmax.sum_row_s + 63 * free_softmax.bottleneck_row_s
        )
        assert free_softmax.bottleneck_row_s == 100e-9
        all_free = StageTiming(0.0, 0.0, 0.0, num_rows=4)
        assert pipeline.vector_grained_latency(all_free).total_latency_s == 0.0
        assert pipeline.operand_grained_latency(all_free).total_latency_s == 0.0


class TestSTARAccelerator:
    def test_cost_report_matches_paper_scale(self):
        star = STARAccelerator()
        report = star.cost_report(BertWorkload(seq_len=128))
        # paper: 612.66 GOPs/s/W; the model should land in the same regime
        assert 450 < report.computing_efficiency_gops_per_watt < 800
        assert report.power_w < 30
        assert report.area_mm2 < 100

    def test_vector_pipeline_beats_operand_pipeline(self):
        workload = BertWorkload(seq_len=128)
        vector = STARAccelerator()
        operand = STARAccelerator(
            STARConfig(pipeline=PipelineConfig(granularity="operand"))
        )
        assert vector.inference_latency_s(workload) < operand.inference_latency_s(workload)

    def test_latency_grows_with_sequence_length(self):
        star = STARAccelerator()
        assert star.inference_latency_s(BertWorkload(seq_len=256)) > star.inference_latency_s(
            BertWorkload(seq_len=128)
        )

    def test_layer_breakdown_components_positive(self):
        star = STARAccelerator()
        breakdown = star.layer_latency_breakdown(BertWorkload(seq_len=128))
        assert breakdown.projection_s > 0
        assert breakdown.attention_pipeline_s > 0
        assert breakdown.ffn_s > 0
        assert breakdown.total_s == pytest.approx(
            breakdown.projection_s + breakdown.attention_pipeline_s + breakdown.ffn_s
        )
        assert 0 <= breakdown.softmax_share <= 1

    def test_more_softmax_engines_do_not_hurt_latency(self):
        workload = BertWorkload(seq_len=128)
        few = STARAccelerator(num_softmax_engines=8)
        many = STARAccelerator(num_softmax_engines=128)
        assert many.inference_latency_s(workload) <= few.inference_latency_s(workload)
        assert many.power_w() > few.power_w()

    def test_softmax_format_propagates(self):
        config = STARConfig(softmax=SoftmaxEngineConfig(fmt=MRPC_FORMAT))
        star = STARAccelerator(config)
        assert star.softmax_engine.fmt == MRPC_FORMAT

    def test_requires_positive_engine_count(self):
        with pytest.raises(ValueError):
            STARAccelerator(num_softmax_engines=0)

    def test_executed_schedule_close_to_analytical(self):
        workload = BertWorkload(seq_len=128)
        star = STARAccelerator()
        a = star.inference_latency_s(workload)
        e = star.executed_model_schedule(workload).total_latency_s
        assert e == pytest.approx(a, rel=0.05)
        assert e != a  # discrete servers, not rate scaling

    def test_executed_schedule_exposes_resources(self):
        star = STARAccelerator(num_softmax_engines=16)
        schedule = star.executed_attention_schedule(BertWorkload(seq_len=64))
        assert schedule.num_rows == 12 * 64
        assert schedule.num_softmax_engines == 16
        assert schedule.num_streams == 12
        assert sum(schedule.engine_rows) == schedule.num_rows

    def test_native_timing_is_undivided(self):
        star = STARAccelerator()
        workload = BertWorkload(seq_len=128)
        native = star.native_attention_stage_timing(workload)
        aggregate = star.attention_stage_timing(workload)
        assert native.score_row_s == pytest.approx(12 * aggregate.score_row_s)
        assert native.softmax_row_s == pytest.approx(64 * aggregate.softmax_row_s)
        assert native.num_rows == aggregate.num_rows

    def test_executed_schedule_rejects_granularity_typo(self):
        star = STARAccelerator()
        with pytest.raises(ValueError):
            star.executed_attention_schedule(BertWorkload(seq_len=32), granularity="vectr")
