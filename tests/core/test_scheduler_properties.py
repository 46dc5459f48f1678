"""Property tests for the event-driven scheduler's invariants.

Randomised :class:`~repro.core.pipeline.StageTiming` draws (including
zero-cost stages), pool sizes, handoffs and jitter — the invariants hold for
every schedule the executor can produce:

* causality — no row enters softmax before its score row has finished and
  been forwarded, nor the context GEMM before its softmax row;
* conservation — every row flows through all three stages exactly once;
* exclusivity — a softmax engine never serves two rows at once;
* steady state — with one server per stage and no jitter, the measured
  steady-state completion interval equals the bottleneck stage (+ handoff).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import PipelineConfig
from repro.core.pipeline import StageTiming
from repro.core.scheduler import PipelineExecutor, StageJitter

_EPS = 1e-15  # float-accumulation slack on simulated timestamps

stage_latencies = st.one_of(
    st.just(0.0),  # zero-cost stages are legal ablation points
    st.floats(min_value=1e-9, max_value=1e-6, allow_nan=False, allow_infinity=False),
)

timings = st.builds(
    StageTiming,
    score_row_s=stage_latencies,
    softmax_row_s=stage_latencies,
    context_row_s=stage_latencies,
    num_rows=st.integers(min_value=1, max_value=160),
)

executors = st.builds(
    PipelineExecutor,
    st.builds(
        PipelineConfig,
        granularity=st.just("vector"),
        stage_handoff_s=st.sampled_from([0.0, 2e-9, 25e-9]),
    ),
    streams=st.integers(min_value=1, max_value=6),
    softmax_engines=st.integers(min_value=1, max_value=6),
    jitter=st.one_of(
        st.none(),
        st.builds(
            StageJitter,
            sigma=st.floats(min_value=0.0, max_value=0.5),
            seed=st.integers(min_value=0, max_value=2**16),
        ),
    ),
)


@settings(max_examples=60, deadline=None)
@given(timing=timings, executor=executors)
def test_causality_no_stage_runs_ahead_of_its_input(timing, executor):
    handoff = executor.config.stage_handoff_s
    schedule = executor.execute(timing)
    for record in schedule.records:
        assert record.score_end_s >= record.score_start_s
        assert record.softmax_start_s >= record.score_end_s + handoff - _EPS
        assert record.softmax_end_s >= record.softmax_start_s
        assert record.context_start_s >= record.softmax_end_s + handoff - _EPS
        assert record.context_end_s >= record.context_start_s


@settings(max_examples=60, deadline=None)
@given(timing=timings, executor=executors)
def test_rows_are_conserved(timing, executor):
    schedule = executor.execute(timing)
    assert schedule.num_rows == timing.num_rows
    assert sorted(record.row for record in schedule.records) == list(range(timing.num_rows))
    assert sum(schedule.engine_rows) == timing.num_rows
    assert np.isfinite(schedule.total_latency_s)
    assert schedule.total_latency_s == max(r.completion_s for r in schedule.records)


@settings(max_examples=60, deadline=None)
@given(timing=timings, executor=executors)
def test_softmax_engines_never_overlap(timing, executor):
    handoff = executor.config.stage_handoff_s
    schedule = executor.execute(timing)
    by_engine: dict[int, list] = {}
    for record in schedule.records:
        by_engine.setdefault(record.engine, []).append(record)
    for records in by_engine.values():
        records.sort(key=lambda r: r.softmax_start_s)
        for earlier, later in zip(records, records[1:]):
            # the engine is busy through service + forward
            assert later.softmax_start_s >= earlier.softmax_end_s + handoff - _EPS


@settings(max_examples=60, deadline=None)
@given(timing=timings, executor=executors)
def test_streams_process_their_rows_in_order(timing, executor):
    schedule = executor.execute(timing)
    by_stream: dict[int, list] = {}
    for record in sorted(schedule.records, key=lambda r: r.row):
        by_stream.setdefault(record.stream, []).append(record)
    for records in by_stream.values():
        starts = [r.score_start_s for r in records]
        assert starts == sorted(starts)


@settings(max_examples=60, deadline=None)
@given(timing=timings, executor=executors)
def test_vector_schedule_beats_operand_up_to_forwarding_cost(timing, executor):
    # pipelining can only lose by the extra per-row forwards it performs:
    # the operand schedule forwards each operand twice in total, the vector
    # schedule forwards every row at every stage.  (With near-zero stage
    # compute the forwards dominate and operand-grained genuinely wins —
    # the analytical formulas predict the same crossover.)
    vector = executor.execute(timing)
    operand = executor.execute(timing, "operand")
    forwarding_slack = (timing.num_rows - 1) * executor.config.stage_handoff_s
    packing_slack = 0.0
    if executor.jitter is not None:
        # with jittered (heterogeneous) service times the two schedules are
        # different list schedules of the same tasks: the operand barrier
        # dispatches each stage's rows to the least-loaded server while the
        # vector pipeline dispatches in arrival order, so the operand
        # packing can win by up to one maximal task per stage (the standard
        # list-scheduling bound), on top of the forwarding difference
        score_s, softmax_s, context_s = executor._service_times(timing)
        packing_slack = score_s.max() + softmax_s.max() + context_s.max()
    assert (
        vector.total_latency_s
        <= operand.total_latency_s + forwarding_slack + packing_slack + _EPS
    )


@settings(max_examples=60, deadline=None)
@given(
    timing=timings,
    handoff=st.sampled_from([0.0, 2e-9, 25e-9]),
)
def test_steady_state_interval_equals_bottleneck(timing, handoff):
    # single server per stage, no jitter: after the pipeline fills, rows
    # complete exactly one bottleneck interval (+ forward) apart
    executor = PipelineExecutor(PipelineConfig(stage_handoff_s=handoff))
    schedule = executor.execute(timing)
    expected = timing.bottleneck_row_s + handoff
    if timing.num_rows >= 8:
        np.testing.assert_allclose(
            schedule.steady_state_interval_s, expected, rtol=1e-9, atol=1e-18
        )
        completions = sorted(r.completion_s for r in schedule.records)
        gaps = np.diff(completions)
        np.testing.assert_allclose(gaps, expected, rtol=1e-6, atol=1e-15)


@settings(max_examples=40, deadline=None)
@given(timing=timings, executor=executors, factor=st.integers(min_value=2, max_value=5))
def test_uniformly_slower_stages_never_speed_things_up(timing, executor, factor):
    slower = StageTiming(
        score_row_s=timing.score_row_s * factor,
        softmax_row_s=timing.softmax_row_s * factor,
        context_row_s=timing.context_row_s * factor,
        num_rows=timing.num_rows,
    )
    base = executor.execute(timing)
    scaled = executor.execute(slower)
    assert scaled.total_latency_s >= base.total_latency_s - _EPS
