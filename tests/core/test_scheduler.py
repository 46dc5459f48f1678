"""Unit tests for the event-driven pipeline executor and attention executor."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import MatMulEngineConfig, PipelineConfig, SoftmaxEngineConfig
from repro.core.matmul_engine import GEMMShape, MatMulEngine
from repro.core.pipeline import StageTiming
from repro.core.scheduler import (
    AttentionExecutor,
    ExecutedSchedule,
    PipelineExecutor,
    StageJitter,
)
from repro.core.softmax_engine import RRAMSoftmaxEngine
from repro.nn.functional import softmax as exact_softmax


def timing(score=100e-9, softmax=150e-9, context=100e-9, rows=64) -> StageTiming:
    return StageTiming(
        score_row_s=score, softmax_row_s=softmax, context_row_s=context, num_rows=rows
    )


class TestPipelineExecutor:
    def test_single_row(self):
        config = PipelineConfig(stage_handoff_s=2e-9)
        schedule = PipelineExecutor(config).execute(timing(rows=1))
        assert schedule.num_rows == 1
        assert schedule.total_latency_s == pytest.approx(350e-9 + 2 * 2e-9)
        record = schedule.records[0]
        assert record.score_start_s == 0.0
        assert record.softmax_start_s == pytest.approx(102e-9)
        assert record.completion_s == pytest.approx(schedule.total_latency_s)

    def test_rows_flow_in_order_on_single_servers(self):
        schedule = PipelineExecutor(PipelineConfig(stage_handoff_s=0.0)).execute(
            timing(rows=16)
        )
        starts = [r.softmax_start_s for r in schedule.records]
        assert starts == sorted(starts)

    def test_execute_uses_configured_granularity(self):
        t = timing()
        vector = PipelineExecutor(PipelineConfig(granularity="vector")).execute(t)
        operand = PipelineExecutor(PipelineConfig(granularity="operand")).execute(t)
        assert vector.granularity == "vector"
        assert operand.granularity == "operand"
        assert vector.total_latency_s < operand.total_latency_s

    def test_granularity_overrides_the_configured_one(self):
        t = timing()
        executor = PipelineExecutor(PipelineConfig(granularity="vector"))
        operand = executor.execute(t, "operand")
        assert operand.granularity == "operand"
        assert operand == PipelineExecutor(PipelineConfig(granularity="operand")).execute(t)
        assert executor.execute(t).total_latency_s < operand.total_latency_s
        with pytest.raises(ValueError, match="'vectr'"):
            executor.execute(t, "vectr")

    def test_free_pipeline_executes_in_zero_time(self):
        executor = PipelineExecutor(PipelineConfig(stage_handoff_s=0.0))
        free = timing(0.0, 0.0, 0.0, rows=4)
        assert executor.execute(free).total_latency_s == 0.0
        assert executor.execute(free, "operand").total_latency_s == 0.0

    def test_more_engines_reduce_latency_when_softmax_bound(self):
        t = timing(softmax=500e-9, rows=128)
        one = PipelineExecutor(softmax_engines=1).execute(t)
        four = PipelineExecutor(softmax_engines=4).execute(t)
        assert four.total_latency_s < one.total_latency_s
        assert sum(four.engine_rows) == 128
        assert all(count > 0 for count in four.engine_rows)

    def test_streams_parallelise_the_gemm_stages(self):
        t = timing(score=500e-9, softmax=10e-9, rows=128)
        one = PipelineExecutor(streams=1).execute(t)
        four = PipelineExecutor(streams=4, softmax_engines=1).execute(t)
        assert four.total_latency_s < one.total_latency_s

    def test_faster_engine_serves_more_rows(self):
        t = timing(softmax=400e-9, rows=120)
        schedule = PipelineExecutor(
            softmax_engines=2, softmax_speedups=(1.0, 3.0)
        ).execute(t)
        assert schedule.engine_rows[1] > schedule.engine_rows[0]
        assert sum(schedule.engine_rows) == 120

    def test_jitter_is_deterministic_per_seed(self):
        t = timing(rows=32)
        a = PipelineExecutor(jitter=StageJitter(sigma=0.2, seed=5)).execute(t)
        b = PipelineExecutor(jitter=StageJitter(sigma=0.2, seed=5)).execute(t)
        c = PipelineExecutor(jitter=StageJitter(sigma=0.2, seed=6)).execute(t)
        assert a.total_latency_s == b.total_latency_s
        assert a.total_latency_s != c.total_latency_s

    def test_zero_jitter_matches_no_jitter(self):
        t = timing(rows=32)
        jittered = PipelineExecutor(jitter=StageJitter(sigma=0.0, seed=9)).execute(t)
        plain = PipelineExecutor().execute(t)
        assert jittered.total_latency_s == plain.total_latency_s

    def test_queue_peak_counts_softmax_backlog(self):
        # score is much faster than the lone softmax engine: finished score
        # rows pile up in the softmax queue
        t = timing(score=10e-9, softmax=500e-9, rows=64)
        schedule = PipelineExecutor(PipelineConfig(stage_handoff_s=0.0)).execute(t)
        assert schedule.queue_peaks["softmax"] > 32

    def test_operand_phases_queue_every_row(self):
        # all rows are resident before a phase starts, and the engines,
        # all free at the barrier, take rows first-free, lowest index first
        executor = PipelineExecutor(softmax_engines=3)
        schedule = executor.execute_service_times(
            np.full(7, 1e-7), np.full(7, 1e-7), np.full(7, 1e-7), granularity="operand"
        )
        assert schedule.queue_peaks == {"score": 7, "softmax": 7, "context": 7}
        assert [r.engine for r in schedule.records] == [0, 1, 2, 0, 1, 2, 0]
        assert schedule.engine_rows == (3, 2, 2)

    def test_operand_busy_time_is_speed_scaled_service(self):
        rng = np.random.default_rng(3)
        score, softmax, context = (rng.uniform(0.0, 2e-7, 40) for _ in range(3))
        speedups = np.array([1.0, 2.5])
        executor = PipelineExecutor(streams=3, softmax_engines=2, softmax_speedups=tuple(speedups))
        schedule = executor.execute_service_times(
            score, softmax, context, granularity="operand"
        )
        engines = np.array([r.engine for r in schedule.records])
        assert schedule.engine_rows == tuple(np.bincount(engines, minlength=2).tolist())
        assert schedule.engine_rows[1] > schedule.engine_rows[0]
        assert schedule.stage_busy_s["softmax"] == pytest.approx(
            np.sum(softmax / speedups[engines])
        )
        assert schedule.stage_busy_s["score"] == pytest.approx(score.sum())
        assert schedule.stage_busy_s["context"] == pytest.approx(context.sum())

    def test_utilization_bounds_and_unknown_stage(self):
        schedule = PipelineExecutor().execute(timing())
        for stage in ("score", "softmax", "context"):
            assert 0.0 < schedule.utilization(stage) <= 1.0
        with pytest.raises(ValueError):
            schedule.utilization("divider")

    def test_service_time_entry_point_with_explicit_streams(self):
        executor = PipelineExecutor(streams=2)
        n = 8
        schedule = executor.execute_service_times(
            np.full(n, 100e-9),
            np.full(n, 100e-9),
            np.full(n, 100e-9),
            stream_of=np.array([0, 0, 0, 0, 1, 1, 1, 1]),
        )
        assert isinstance(schedule, ExecutedSchedule)
        assert {r.stream for r in schedule.records} == {0, 1}

    def test_invalid_inputs_rejected(self):
        executor = PipelineExecutor(streams=2)
        with pytest.raises(ValueError):
            executor.execute_service_times(np.array([]), np.array([]), np.array([]))
        with pytest.raises(ValueError):
            executor.execute_service_times(
                np.ones(3), np.ones(2), np.ones(3)
            )
        with pytest.raises(ValueError):
            executor.execute_service_times(
                np.ones(2), np.ones(2), np.ones(2), stream_of=np.array([0, 5])
            )
        with pytest.raises(ValueError):
            executor.execute_service_times(
                -np.ones(2), np.ones(2), np.ones(2)
            )
        with pytest.raises(ValueError):
            PipelineExecutor(streams=0)
        with pytest.raises(ValueError):
            PipelineExecutor(softmax_engines=2, softmax_speedups=(1.0,))
        with pytest.raises(ValueError):
            PipelineExecutor(softmax_engines=1, softmax_speedups=(0.0,)).execute(
                timing(rows=1)
            )


class TestAttentionExecutor:
    def executor(self, num_engines=2) -> AttentionExecutor:
        engine = MatMulEngine(
            MatMulEngineConfig(
                crossbar_rows=16, crossbar_cols=16, adc_bits=10, bits_per_cell=5, num_tiles=8
            )
        )
        pool = [RRAMSoftmaxEngine(SoftmaxEngineConfig()) for _ in range(num_engines)]
        return AttentionExecutor(engine, pool)

    def test_functional_output_matches_exact_attention(self, rng):
        executor = self.executor()
        shape = (1, 2, 8, 16)
        q, k, v = (rng.normal(size=shape) for _ in range(3))
        result = executor.run(q, k, v)
        exact = exact_softmax(q @ np.swapaxes(k, -1, -2) / np.sqrt(16)) @ v
        correlation = np.corrcoef(result.context.ravel(), exact.ravel())[0, 1]
        assert correlation > 0.98
        assert result.schedule.num_rows == 16
        assert executor.last_schedule is result.schedule

    def test_measured_times_match_ledger_derivations(self, rng):
        executor = self.executor(num_engines=1)
        shape = (1, 1, 4, 16)
        q, k, v = (rng.normal(size=shape) for _ in range(3))
        result = executor.run(q, k, v)
        seq_len = 4
        softmax_engine = executor.softmax_pool[0]
        expected_softmax = softmax_engine.row_latency_s(seq_len)
        for record in result.schedule.records:
            assert record.softmax_end_s - record.softmax_start_s == pytest.approx(
                expected_softmax
            )
        expected_score = executor.matmul_engine.row_latency_s(GEMMShape(1, 16, seq_len))
        record = result.schedule.records[0]
        assert record.score_end_s - record.score_start_s == pytest.approx(expected_score)

    def test_mask_is_applied_before_softmax(self, rng):
        executor = self.executor()
        shape = (1, 2, 6, 16)
        q, k, v = (rng.normal(size=shape) for _ in range(3))
        mask = np.zeros((1, 1, 6, 6))
        mask[..., 3:] = -1e9  # hide the last three keys
        result = executor.run(q, k, v, mask=mask)
        assert np.all(result.weights[..., 3:] < 1e-6)

    def test_row_by_row_matches_batched_engine_softmax(self, rng):
        """Streaming rows one by one equals the batched engine on the block."""
        executor = self.executor(num_engines=3)
        shape = (1, 1, 6, 16)
        q, k, v = (rng.normal(size=shape) for _ in range(3))
        result = executor.run(q, k, v)
        reference = RRAMSoftmaxEngine(SoftmaxEngineConfig())
        np.testing.assert_array_equal(
            result.weights[0, 0], reference.softmax(result.scores[0, 0])
        )

    def test_shape_validation(self, rng):
        executor = self.executor()
        empty = np.zeros((1, 2, 0, 16))
        with pytest.raises(ValueError, match="empty schedule"):
            executor.run(empty, empty, empty)
        with pytest.raises(ValueError):
            executor.run(
                rng.normal(size=(2, 8, 16)),
                rng.normal(size=(2, 8, 16)),
                rng.normal(size=(2, 8, 16)),
            )
        with pytest.raises(ValueError):
            executor.run(
                rng.normal(size=(1, 2, 8, 16)),
                rng.normal(size=(1, 2, 4, 16)),
                rng.normal(size=(1, 2, 8, 16)),
            )


    def test_jitter_perturbs_functional_schedules(self, rng):
        from repro.core.scheduler import StageJitter

        shape = (1, 1, 6, 16)
        q, k, v = (rng.normal(size=shape) for _ in range(3))
        plain = self.executor().run(q, k, v).schedule
        jittered_executor = self.executor()
        jittered_executor.jitter = StageJitter(sigma=0.5, seed=11)
        jittered = jittered_executor.run(q, k, v).schedule
        assert jittered.total_latency_s != plain.total_latency_s

    def test_pool_construction_from_int(self):
        executor = AttentionExecutor(softmax_engines=3)
        assert len(executor.softmax_pool) == 3
        with pytest.raises(ValueError):
            AttentionExecutor(softmax_engines=0)
        with pytest.raises(ValueError):
            AttentionExecutor(softmax_engines=[])
