"""Executed-scheduler throughput and scenario-diversity benchmarks.

The executor must stay cheap enough to run inside experiment sweeps: one
BERT-base seq-512 attention layer is 6144 rows x 3 stages, each stage
solved as a FIFO recurrence over its rows.  The smoke gate holds the
vector-grained execution of that layer to at most **1.0x** the time of
the operand-grained one — the plain per-row loop over the same rows,
timed in alternating rounds — so a return to per-row event traffic fails
the suite.  The scenario benchmarks exercise what the closed-form model
cannot express — per-row jitter and unbalanced softmax-engine pools.
"""

from __future__ import annotations

import pytest

from repro.core.accelerator import STARAccelerator
from repro.core.config import PipelineConfig
from repro.core.scheduler import PipelineExecutor, StageJitter
from repro.nn.bert import BertWorkload

from conftest import best_of_alternating, record


@pytest.mark.smoke
def test_bench_executor_bert_base_rows(benchmark):
    """Executing a full BERT-base seq-512 attention layer stays sub-second."""
    star = STARAccelerator()
    workload = BertWorkload(seq_len=512)

    schedule = benchmark(star.executed_attention_schedule, workload)

    rows_per_s = schedule.num_rows / benchmark.stats["mean"]
    record(
        benchmark,
        rows=schedule.num_rows,
        simulated_rows_per_wall_second=round(rows_per_s),
        measured_latency_us=round(schedule.total_latency_s * 1e6, 2),
    )
    assert schedule.num_rows == 12 * 512
    assert benchmark.stats["mean"] < 1.0


@pytest.mark.smoke
def test_bench_vector_executor_within_operand_time():
    """The pipelined layer costs no more wall time than the barriered one."""
    star = STARAccelerator()
    workload = BertWorkload(seq_len=512)
    vector_s, operand_s = best_of_alternating(
        [
            lambda: star.executed_attention_schedule(workload, "vector"),
            lambda: star.executed_attention_schedule(workload, "operand"),
        ],
        repeats=5,
    )
    ratio = vector_s / operand_s
    assert ratio <= 1.0, (
        f"the vector-grained layer takes {ratio:.2f}x the operand-grained one "
        f"({vector_s * 1e3:.1f} ms vs {operand_s * 1e3:.1f} ms); the bound is 1.0x"
    )


def test_bench_executor_scenario_diversity(benchmark):
    """Jitter and unbalanced pools — scenarios the formulas cannot express."""
    config = PipelineConfig(stage_handoff_s=0.0)
    star = STARAccelerator()
    timing = star.native_attention_stage_timing(BertWorkload(seq_len=128))

    def scenarios():
        base = PipelineExecutor(config, streams=12, softmax_engines=8).execute(timing)
        jittered = PipelineExecutor(
            config, streams=12, softmax_engines=8, jitter=StageJitter(sigma=0.3, seed=0)
        ).execute(timing)
        unbalanced = PipelineExecutor(
            config,
            streams=12,
            softmax_engines=8,
            softmax_speedups=(0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 1.0),
        ).execute(timing)
        return base, jittered, unbalanced

    base, jittered, unbalanced = benchmark(scenarios)

    record(
        benchmark,
        base_us=round(base.total_latency_s * 1e6, 2),
        jittered_us=round(jittered.total_latency_s * 1e6, 2),
        unbalanced_us=round(unbalanced.total_latency_s * 1e6, 2),
        unbalanced_engine_rows=list(unbalanced.engine_rows),
    )
    # service-time variance can only hurt a work-conserving pipeline
    assert jittered.total_latency_s > base.total_latency_s
    # faster engines drain more of the shared queue
    assert unbalanced.engine_rows[6] > unbalanced.engine_rows[0]
    assert sum(unbalanced.engine_rows) == timing.num_rows
