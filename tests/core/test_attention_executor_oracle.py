"""Differential test of the blocked attention executor against the per-row loop.

:class:`PerRowAttentionExecutor` keeps :class:`~repro.core.scheduler.AttentionExecutor`'s
original ``run`` verbatim as the exact reference: every query row of every
head goes through its own one-row score GEMM, one-row softmax on engine
``row % pool`` and one-row context GEMM, and each stage's service time is
the ledger delta that row added.  The executor instead runs each (batch,
head) as one block: one score GEMM, one strided softmax block per pool
engine and one context GEMM, with a GEMM row's time its share of the
block's ledger delta and a softmax row's time derived from its own LUT
reads.  With ideal devices the two must agree bit for bit on the output
tensors, on every array and figure of the executed schedule, and on the
access-statistics ledgers of the MatMul engine and of each pool engine.

Scores wide enough for the 9-bit format's CAM to miss make the rows of one
softmax block differ in LUT reads, hence in service time; head widths above
the 16-row tile make the operands span several tiles.
"""

from __future__ import annotations

from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import (
    MatMulEngine,
    MatMulEngineConfig,
    RRAMSoftmaxEngine,
    SoftmaxEngineConfig,
    StageJitter,
)
from repro.core.config import PipelineConfig
from repro.core.scheduler import AttentionExecution, AttentionExecutor, ExecutedSchedule
from repro.nn.functional import softmax as exact_softmax
from repro.rram.noise import NoiseConfig
from repro.utils.fixed_point import CNEWS_FORMAT, MRPC_FORMAT

#: Small tiles, so a head wider than 16 spans two of them.
TILE = MatMulEngineConfig(
    crossbar_rows=16, crossbar_cols=16, adc_bits=10, bits_per_cell=5, num_tiles=8
)
#: The tile of perfbench's executed encoder.
ENCODER_TILE = MatMulEngineConfig(crossbar_rows=32, crossbar_cols=32, adc_bits=10, bits_per_cell=5)


def _stats_delta(before, after):
    """Field-wise difference of two access-stats dataclasses."""
    return replace(
        before,
        **{
            f.name: getattr(after, f.name) - getattr(before, f.name)
            for f in fields(after)
        },
    )


class PerRowAttentionExecutor(AttentionExecutor):
    """The executor's original row-at-a-time ``run`` (reference only)."""

    def run(
        self,
        query: np.ndarray,
        key: np.ndarray,
        value: np.ndarray,
        *,
        scale: float | None = None,
        mask: np.ndarray | None = None,
    ) -> AttentionExecution:
        """Execute attention for ``(batch, heads, seq, head_dim)`` tensors."""
        query = np.asarray(query, dtype=np.float64)
        key = np.asarray(key, dtype=np.float64)
        value = np.asarray(value, dtype=np.float64)
        if query.ndim != 4 or key.shape != query.shape or value.shape != query.shape:
            raise ValueError(
                "query/key/value must share one (batch, heads, seq, head_dim) "
                f"shape, got {query.shape}, {key.shape}, {value.shape}"
            )
        batch, heads, seq_len, head_dim = query.shape
        if scale is None:
            scale = 1.0 / np.sqrt(head_dim)
        mask_arr = None
        if mask is not None:
            mask_arr = np.broadcast_to(
                np.asarray(mask, dtype=np.float64), (batch, heads, seq_len, seq_len)
            )

        executor = self.executor_for(heads, batch)
        engine = self.matmul_engine
        pool = self.softmax_pool
        n = batch * heads * seq_len

        scores = np.empty((batch, heads, seq_len, seq_len))
        weights = np.empty_like(scores)
        context = np.empty_like(query)
        score_s = np.empty(n)
        softmax_s = np.empty(n)
        context_s = np.empty(n)
        stream_of = np.empty(n, dtype=np.int64)

        row = 0
        for b in range(batch):
            for h in range(heads):
                stream = (b * heads + h) % executor.streams
                # the head-stream's stationary operands: programmed once,
                # before streaming, so per-row ledger deltas are read-only
                k_operand = engine.program_operand(key[b, h].T)
                v_operand = engine.program_operand(value[b, h])
                for i in range(seq_len):
                    before = replace(engine.access_stats)
                    score_row = engine.matmul(query[b, h, i : i + 1], k_operand)[0] * scale
                    after = replace(engine.access_stats)
                    score_s[row] = engine.latency_s_of(
                        _stats_delta(before, after)
                    ) / k_operand.num_tiles
                    if mask_arr is not None:
                        score_row = score_row + mask_arr[b, h, i]
                    scores[b, h, i] = score_row

                    soft = pool[row % len(pool)]
                    soft_before = soft.access_stats
                    weights[b, h, i] = soft.softmax(score_row)
                    softmax_s[row] = soft.latency_s_of(
                        _stats_delta(soft_before, soft.access_stats)
                    )

                    before = replace(engine.access_stats)
                    context[b, h, i] = engine.matmul(weights[b, h, i : i + 1], v_operand)[0]
                    after = replace(engine.access_stats)
                    context_s[row] = engine.latency_s_of(
                        _stats_delta(before, after)
                    ) / v_operand.num_tiles
                    stream_of[row] = stream
                    row += 1

        if self.jitter is not None:
            # ledger-derived service times are deterministic; the configured
            # jitter perturbs them the same way the timed executor would
            factors = self.jitter.factors(n)
            score_s *= factors[:, 0]
            softmax_s *= factors[:, 1]
            context_s *= factors[:, 2]
        schedule = executor.execute_service_times(
            score_s, softmax_s, context_s, stream_of=stream_of
        )
        self.last_schedule = schedule
        return AttentionExecution(
            context=context, scores=scores, weights=weights, schedule=schedule
        )


def build(executor_type, *, pool, fmt=CNEWS_FORMAT, tile=TILE, granularity="vector",
          jitter=None, softmax_noise=None, tile_noise=None, search_error_rate=0.0):
    """A fresh executor with fresh engines, so two builds start from equal state."""
    if tile_noise is not None:
        tile = replace(tile, noise=tile_noise)
    engines = [
        RRAMSoftmaxEngine(
            SoftmaxEngineConfig(
                fmt=fmt,
                noise=softmax_noise or NoiseConfig(),
                cam_search_error_rate=search_error_rate,
                cam_seed=index,
            )
        )
        for index in range(pool)
    ]
    return executor_type(
        MatMulEngine(tile),
        engines,
        PipelineConfig(granularity=granularity),
        jitter=None if jitter is None else StageJitter(sigma=jitter, seed=7),
    )


def inputs(batch, heads, seq, head_dim, magnitude, seed):
    rng = np.random.default_rng(seed)
    return tuple(rng.normal(0.0, magnitude, (batch, heads, seq, head_dim)) for _ in range(3))


def make_mask(kind, batch, seq, seed):
    if kind is None:
        return None
    if kind == "causal":
        return np.triu(np.full((seq, seq), -1e9), k=1)[None, None]
    hidden = np.random.default_rng(seed).random((batch, 1, 1, seq)) < 0.3
    hidden[..., 0] = False  # every row keeps a key
    return np.where(hidden, -1e9, 0.0)


def hexed(values) -> list[str]:
    return [float(v).hex() for v in np.asarray(values, dtype=np.float64).ravel().tolist()]


def assert_schedules_identical(actual: ExecutedSchedule, expected: ExecutedSchedule) -> None:
    for field in fields(ExecutedSchedule):
        mine, theirs = getattr(actual, field.name), getattr(expected, field.name)
        if isinstance(mine, np.ndarray):
            assert mine.dtype == theirs.dtype, field.name
            assert hexed(mine) == hexed(theirs), field.name
        elif isinstance(mine, float):
            assert mine.hex() == theirs.hex(), field.name
        elif field.name == "stage_busy_s":
            assert {k: v.hex() for k, v in mine.items()} == {
                k: v.hex() for k, v in theirs.items()
            }
        else:
            assert mine == theirs, field.name


def assert_runs_identical(blocked, per_row, result: AttentionExecution,
                          expected: AttentionExecution) -> None:
    for name in ("context", "scores", "weights"):
        assert hexed(getattr(result, name)) == hexed(getattr(expected, name)), name
    assert_schedules_identical(result.schedule, expected.schedule)
    assert blocked.matmul_engine.access_stats == per_row.matmul_engine.access_stats
    for mine, theirs in zip(blocked.softmax_pool, per_row.softmax_pool):
        assert mine.access_stats == theirs.access_stats
        assert mine.rows_processed == theirs.rows_processed


def run_both(case):
    (batch, heads, seq, head_dim, pool, fmt, granularity, magnitude, mask_kind,
     jitter, seed) = case
    q, k, v = inputs(batch, heads, seq, head_dim, magnitude, seed)
    mask = make_mask(mask_kind, batch, seq, seed)
    blocked = build(AttentionExecutor, pool=pool, fmt=fmt, granularity=granularity,
                    jitter=jitter)
    per_row = build(PerRowAttentionExecutor, pool=pool, fmt=fmt, granularity=granularity,
                    jitter=jitter)
    result = blocked.run(q, k, v, mask=mask)
    expected = per_row.run(q, k, v, mask=mask)
    return blocked, per_row, result, expected


def softmax_service_s(schedule: ExecutedSchedule) -> np.ndarray:
    return schedule.ends[:, 1] - schedule.starts[:, 1]


@st.composite
def cases(draw):
    return (
        draw(st.integers(1, 3)),  # batch
        draw(st.integers(1, 4)),  # heads
        draw(st.integers(1, 16)),  # seq
        draw(st.sampled_from([4, 8, 16, 24])),  # head_dim: 24 spans two tile rows
        draw(st.integers(1, 6)),  # softmax pool, larger than seq for short rows
        draw(st.sampled_from([CNEWS_FORMAT, MRPC_FORMAT])),
        draw(st.sampled_from(["vector", "operand"])),
        draw(st.sampled_from([0.5, 2.0, 4.0])),  # input magnitude
        draw(st.sampled_from([None, "keys", "causal"])),
        draw(st.sampled_from([None, 0.3])),  # stage jitter sigma
        draw(st.integers(0, 2**16)),
    )


# rows with different CAM misses in one softmax block, over two tile rows
WIDE_MRPC = (2, 3, 13, 24, 3, MRPC_FORMAT, "vector", 4.0, None, None, 5)


class TestBlockedExecutorMatchesPerRowLoop:
    @settings(max_examples=100, deadline=None)
    @given(case=cases())
    @example(case=WIDE_MRPC)
    @example(case=(1, 2, 3, 8, 6, CNEWS_FORMAT, "vector", 2.0, "keys", 0.3, 1))
    def test_ideal_devices_bit_identical(self, case):
        assert_runs_identical(*run_both(case))

    def test_rows_of_one_block_differ_in_cam_misses(self):
        blocked, per_row, result, expected = run_both(WIDE_MRPC)
        assert_runs_identical(blocked, per_row, result, expected)
        latencies = softmax_service_s(expected.schedule)
        assert np.unique(latencies).size > 1
        # the spread is within each engine's blocks, not only across engines
        engine_of = expected.schedule.engine_of
        assert any(np.unique(latencies[engine_of == e]).size > 1 for e in range(3))

    def test_perfbench_encoder_shape(self):
        q, k, v = inputs(2, 4, 32, 16, 1.0, 11)
        blocked = build(AttentionExecutor, pool=4, tile=ENCODER_TILE, jitter=0.2)
        per_row = build(PerRowAttentionExecutor, pool=4, tile=ENCODER_TILE, jitter=0.2)
        result = blocked.run(q, k, v, scale=0.25)
        expected = per_row.run(q, k, v, scale=0.25)
        assert_runs_identical(blocked, per_row, result, expected)
        assert result.schedule.num_rows == 2 * 4 * 32


class TestNoisyDevices:
    """Noisy softmax engines: the blocked executor is exact in law, not draw for draw."""

    def test_outputs_correlate_with_exact_attention_as_well_as_the_oracle(self):
        noisy = dict(
            pool=3,
            fmt=MRPC_FORMAT,
            softmax_noise=NoiseConfig(read_noise_sigma=0.03, seed=2),
            tile_noise=NoiseConfig(read_noise_sigma=0.02, seed=3),
        )
        gaps = []
        for seed in range(6):
            q, k, v = inputs(2, 2, 16, 16, 1.5, seed)
            exact = exact_softmax(q @ np.swapaxes(k, -1, -2) / 4.0) @ v
            correlations = []
            for executor_type in (AttentionExecutor, PerRowAttentionExecutor):
                context = build(executor_type, **noisy).run(q, k, v).context
                correlations.append(np.corrcoef(context.ravel(), exact.ravel())[0, 1])
            blocked, per_row = correlations
            assert blocked > 0.98 and per_row > 0.98
            gaps.append(blocked - per_row)
        assert abs(np.mean(gaps)) < 1e-3, gaps

    @pytest.mark.parametrize(
        "noise",
        [
            dict(tile_noise=NoiseConfig(read_noise_sigma=0.02, seed=3)),
            dict(search_error_rate=0.01),
        ],
        ids=["noisy tiles", "cam search errors"],
    )
    def test_tiles_and_search_errors_keep_their_per_row_draws(self, noise):
        """Each tile and each CAM draws per row in row order, blocked or not."""
        q, k, v = inputs(2, 2, 16, 16, 1.5, 0)
        result = build(AttentionExecutor, pool=3, **noise).run(q, k, v)
        expected = build(PerRowAttentionExecutor, pool=3, **noise).run(q, k, v)
        for name in ("context", "scores", "weights"):
            assert hexed(getattr(result, name)) == hexed(getattr(expected, name)), name
