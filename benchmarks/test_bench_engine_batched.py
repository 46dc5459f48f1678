"""Benchmark: the batched RRAM softmax engine against the functional model.

The paper's headline claim is softmax *throughput*; reproducing it at BERT
scale (12 layers x 12 heads x 512 x 512 score matrices) requires the engine
simulation itself to be fast.  These benchmarks record the engine's rows/sec
into the pytest-benchmark report and act as the performance gate.  The
yardstick is :class:`~repro.nn.softmax_models.FixedPointSoftmax`, the
plain-NumPy functional model the engine must match bit for bit, timed on
the same block in alternating rounds so a change of host speed hits both:

* the flagship block — 1536 rows x 512 elements, one full BERT-base layer's
  attention rows at L=512 — must take at most **0.7x** the functional
  model's time;
* a small smoke block must take at most **1.0x** the functional model's
  time, failing the suite on any regression of the engine's hot path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import SoftmaxEngineConfig
from repro.core.softmax_engine import RRAMSoftmaxEngine
from repro.nn.softmax_models import FixedPointSoftmax
from repro.utils.fixed_point import CNEWS_FORMAT
from repro.workloads import CNEWS_PROFILE, AttentionScoreGenerator

from conftest import best_of_alternating, record


def _engine_and_reference_seconds(
    engine: RRAMSoftmaxEngine, block: np.ndarray, repeats: int
) -> tuple[float, float]:
    """Best wall times of the engine and the functional model, alternated."""
    reference = FixedPointSoftmax(CNEWS_FORMAT)
    engine_s, reference_s = best_of_alternating(
        [lambda: engine.softmax_batch(block), lambda: reference(block)], repeats=repeats
    )
    return engine_s, reference_s


def test_bench_engine_batched_block(benchmark):
    """Flagship: 1536 x 512 block in <= 0.7x the functional model's time."""
    engine = RRAMSoftmaxEngine(SoftmaxEngineConfig(fmt=CNEWS_FORMAT))
    block = AttentionScoreGenerator(CNEWS_PROFILE, seed=0).rows(1536, 512)
    engine.softmax_batch(block)  # warm the allocator and caches

    probs = benchmark(engine.softmax_batch, block)

    engine_s, reference_s = _engine_and_reference_seconds(engine, block, repeats=10)
    ratio = engine_s / reference_s
    record(
        benchmark,
        rows=1536,
        seq_len=512,
        batched_rows_per_s=round(1536 / engine_s),
        reference_rows_per_s=round(1536 / reference_s),
        time_vs_reference=round(ratio, 3),
    )
    np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-9)
    # bit-identical to the functional model at full scale
    np.testing.assert_array_equal(probs, FixedPointSoftmax(CNEWS_FORMAT)(block))
    assert ratio <= 0.7, (
        f"the engine takes {ratio:.2f}x the functional model's time "
        f"({engine_s * 1e3:.1f} ms vs {reference_s * 1e3:.1f} ms); the bound is 0.7x"
    )


@pytest.mark.smoke
def test_bench_batched_speedup_smoke(benchmark):
    """CI perf smoke: a small block in <= 1.0x the functional model's time."""
    engine = RRAMSoftmaxEngine(SoftmaxEngineConfig(fmt=CNEWS_FORMAT))
    block = AttentionScoreGenerator(CNEWS_PROFILE, seed=1).rows(256, 128)
    engine.softmax_batch(block)  # warm

    probs = benchmark(engine.softmax_batch, block)

    engine_s, reference_s = _engine_and_reference_seconds(engine, block, repeats=10)
    ratio = engine_s / reference_s
    record(
        benchmark,
        rows=256,
        seq_len=128,
        batched_rows_per_s=round(256 / engine_s),
        time_vs_reference=round(ratio, 3),
    )
    np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-9)
    assert ratio <= 1.0, (
        f"the engine takes {ratio:.2f}x the functional model's time on the "
        "smoke block (bound 1.0x); the engine's hot path has regressed"
    )
