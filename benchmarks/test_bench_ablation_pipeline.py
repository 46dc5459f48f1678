"""E7 (ablation) — vector-grained vs operand-grained attention pipeline.

The paper's vector-grained pipeline is one of the two ingredients of STAR's
gain over ReTransformer; this ablation quantifies it in isolation across
sequence lengths.  Since the executed scheduler landed, every point is
also *executed* (discrete head-streams and softmax engines instead of the
closed-form rate model) and the two are gated to agree within 5 % — the
E7 acceptance criterion.
"""

from __future__ import annotations

import pytest

from repro.analysis.ablation import AblationSuite
from repro.analysis.breakdown import StarScheduleAnalyzer

from conftest import record

SEQ_LENS = (128, 256, 512)


@pytest.mark.smoke
def test_bench_pipeline_granularity_ablation(benchmark):
    """Attention-chain latency under both schedules for several lengths."""
    suite = AblationSuite()

    rows = benchmark(suite.pipeline_ablation, SEQ_LENS)

    record(
        benchmark,
        speedups={row.seq_len: round(row.speedup, 3) for row in rows},
        executed_speedups={row.seq_len: round(row.executed_speedup, 3) for row in rows},
        vector_latency_us={row.seq_len: round(row.vector_latency_s * 1e6, 2) for row in rows},
        operand_latency_us={row.seq_len: round(row.operand_latency_s * 1e6, 2) for row in rows},
        max_speedup_deviation_pct=round(
            max(row.speedup_deviation for row in rows) * 100, 3
        ),
    )
    assert all(row.speedup > 1.0 for row in rows)
    assert all(row.executed_speedup > 1.0 for row in rows)
    # E7 acceptance gate: execution reproduces the analytical speedup to 5%
    assert all(row.speedup_deviation < 0.05 for row in rows)


@pytest.mark.smoke
def test_bench_executed_schedule_cross_validation(benchmark):
    """Event-driven executed latency vs the closed-form prediction."""
    analyzer = StarScheduleAnalyzer(sweep=SEQ_LENS)

    rows = benchmark(analyzer.sweep_rows)

    record(
        benchmark,
        executed_us={row.seq_len: round(row.executed_s * 1e6, 2) for row in rows},
        analytical_us={row.seq_len: round(row.analytical_s * 1e6, 2) for row in rows},
        deviation_pct={row.seq_len: round(row.deviation * 100, 3) for row in rows},
        softmax_utilization={
            row.seq_len: round(row.softmax_utilization, 4) for row in rows
        },
    )
    assert all(row.deviation < 0.05 for row in rows)
    # the softmax pool is the bottleneck stage at these lengths: it should
    # be near-saturated while the schedule hides its latency
    assert all(row.softmax_utilization > 0.9 for row in rows)


def test_bench_star_vs_operand_scheduled_star(benchmark):
    """Whole-accelerator effect of the pipeline granularity at seq 128."""
    from repro.core.accelerator import STARAccelerator
    from repro.core.config import PipelineConfig, STARConfig
    from repro.nn.bert import BertWorkload

    workload = BertWorkload(seq_len=128)
    vector_star = STARAccelerator()
    operand_star = STARAccelerator(STARConfig(pipeline=PipelineConfig(granularity="operand")))

    def both():
        return (
            vector_star.inference_latency_s(workload),
            operand_star.inference_latency_s(workload),
        )

    vector_latency, operand_latency = benchmark(both)

    record(
        benchmark,
        vector_ms=round(vector_latency * 1e3, 3),
        operand_ms=round(operand_latency * 1e3, 3),
        end_to_end_speedup=round(operand_latency / vector_latency, 3),
    )
    assert vector_latency < operand_latency
