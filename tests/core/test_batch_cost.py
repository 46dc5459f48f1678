"""Unit tests of the batch-aware cost model and its GEMM pricing split.

The hard guarantees of the refactor:

* ``batch_size = 1`` pricing under the default cost model is bit-identical
  to the pre-refactor seed formulas (hex-recorded goldens);
* the linear cost model (double buffering off) reproduces exact linear
  pricing at every batch;
* programming is charged exactly once per operand per batch under the
  streamed policy and never under the resident policy;
* the event-driven :class:`~repro.core.batch_cost.BatchGEMMExecutor`
  agrees with the closed forms (exactly when tasks divide the tiles).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.batch_cost import (
    BatchCostModel,
    BatchGEMMExecutor,
    DEFAULT_BATCH_COST,
)
from repro.core.config import MatMulEngineConfig
from repro.core.matmul_engine import GEMMShape, MatMulEngine

#: Pre-refactor ``gemm_latency_s`` / ``gemm_energy_j`` values, recorded on
#: the seed tree as float hex (bit-exact); the energy is now read as
#: ``gemm_batch_cost(shape).energy_j``.  The old formula was
#: ``ceil(tiles_for(shape) * m / parallel) * tile_vmm_latency_s``.
SEED_GEMM_LATENCY_HEX = {
    (128, 768, 768): "0x1.266b85a74cca3p-16",
    (128, 768, 3072): "0x1.266b85a74cca3p-14",
    (128, 3072, 768): "0x1.266b85a74cca3p-14",
    (1, 64, 128): "0x1.888f5cdf110d9p-22",
    (1, 128, 64): "0x1.888f5cdf110d9p-22",
    (77, 300, 515): "0x1.3ef47b753ddb0p-18",
}
SEED_GEMM_ENERGY_HEX = {
    (128, 768, 768): "0x1.e80976f9a28f6p-17",
    (128, 768, 3072): "0x1.e80976f9a28f6p-15",
    (128, 3072, 768): "0x1.e80976f9a28f6p-15",
    (1, 64, 128): "0x1.b1cf86333b2a2p-29",
    (1, 128, 64): "0x1.b1cf86333b2a2p-29",
    (77, 300, 515): "0x1.e94ed29e48fbcp-19",
}
SEED_GEMM_LATENCY_NODUP_HEX = {(128, 768, 768): "0x1.888f5cdf110d9p-15"}


def engine(num_tiles: int = 96, allow_duplication: bool = True) -> MatMulEngine:
    return MatMulEngine(
        MatMulEngineConfig(num_tiles=num_tiles, allow_duplication=allow_duplication)
    )


class TestBatchCostModel:
    def test_rejects_unknown_weight_policy(self):
        with pytest.raises(ValueError):
            BatchCostModel(weight_policy="cached")

    def test_presets(self):
        assert not DEFAULT_BATCH_COST.charges_programming
        assert DEFAULT_BATCH_COST.double_buffering
        assert BatchCostModel.streamed().charges_programming


class TestBatchOneBitIdentity:
    @pytest.mark.parametrize("dims", sorted(SEED_GEMM_LATENCY_HEX))
    def test_default_latency_matches_seed(self, dims):
        shape = GEMMShape(*dims)
        assert engine().gemm_latency_s(shape).hex() == SEED_GEMM_LATENCY_HEX[dims]

    @pytest.mark.parametrize("dims", sorted(SEED_GEMM_ENERGY_HEX))
    def test_default_energy_matches_seed(self, dims):
        shape = GEMMShape(*dims)
        assert engine().gemm_batch_cost(shape).energy_j.hex() == SEED_GEMM_ENERGY_HEX[dims]

    def test_no_duplication_latency_matches_seed(self):
        shape = GEMMShape(128, 768, 768)
        value = engine(allow_duplication=False).gemm_latency_s(shape)
        assert value.hex() == SEED_GEMM_LATENCY_NODUP_HEX[(128, 768, 768)]

    def test_every_cost_model_is_identical_at_batch_one_without_programming(self):
        shape = GEMMShape(64, 300, 200)
        eng = engine()
        base = eng.gemm_streaming_latency_s(shape, batch_size=1)
        for model in (
            DEFAULT_BATCH_COST,
            BatchCostModel.streamed(),
            BatchCostModel(double_buffering=False),
        ):
            assert eng.gemm_streaming_latency_s(shape, 1, model) == base


class TestLegacyLinearity:
    def test_legacy_latency_is_exactly_linear_in_waves(self):
        eng = engine()
        shape = GEMMShape(m=128, k=768, n=768)
        legacy = BatchCostModel(double_buffering=False)
        single_waves = math.ceil(36 * 128 / 96)
        for batch in (1, 3, 8, 32):
            waves = math.ceil(36 * 128 * batch / 96)
            assert eng.gemm_latency_s(shape, batch_size=batch, cost_model=legacy) == (
                waves * eng.tile_vmm_latency_s()
            )
            assert waves == batch * single_waves  # divisible shape: exactly linear


class TestProgrammingAmortisation:
    def test_streamed_charges_programming_exactly_once(self):
        eng = engine()
        shape = GEMMShape(m=16, k=768, n=768)
        for batch in (1, 4, 32):
            cost = eng.gemm_batch_cost(shape, batch, BatchCostModel.streamed())
            assert cost.programming_energy_j == eng.programming_energy_j(shape)
            assert cost.programming_latency_s == eng.programming_latency_s(shape)

    def test_resident_charges_no_programming(self):
        eng = engine()
        cost = eng.gemm_batch_cost(GEMMShape(16, 768, 768), 8, DEFAULT_BATCH_COST)
        assert cost.programming_energy_j == 0.0
        assert cost.programming_latency_s == 0.0

    def test_cost_split_sums_and_ratios(self):
        eng = engine()
        cost = eng.gemm_batch_cost(GEMMShape(32, 768, 768), 8, BatchCostModel.streamed())
        assert cost.latency_s == cost.programming_latency_s + cost.streaming_latency_s
        assert cost.energy_j == cost.programming_energy_j + cost.streaming_energy_j
        assert cost.linear_latency_s == pytest.approx(8 * cost.single_latency_s)
        assert cost.amortisation < 1.0


class TestDoubleBuffering:
    def test_overlapped_vmm_never_slower_and_faster_here(self):
        eng = engine()
        assert eng.tile_vmm_overlapped_latency_s() < eng.tile_vmm_latency_s()

    def test_later_requests_stream_at_overlapped_rate(self):
        eng = engine()
        shape = GEMMShape(m=128, k=768, n=768)  # 36 tiles, 96 | 36*128
        waves = math.ceil(36 * 128 / 96)
        for batch in (2, 5):
            expected = waves * eng.tile_vmm_latency_s() + (
                (batch - 1) * waves
            ) * eng.tile_vmm_overlapped_latency_s()
            assert eng.gemm_streaming_latency_s(shape, batch) == pytest.approx(
                expected, rel=1e-12
            )

    def test_disabled_double_buffering_streams_serialized(self):
        eng = engine()
        shape = GEMMShape(m=64, k=256, n=256)
        model = BatchCostModel(double_buffering=False)
        for batch in (1, 4):
            assert eng.gemm_streaming_latency_s(shape, batch, model) == pytest.approx(
                math.ceil(4 * 64 * batch / 96) * eng.tile_vmm_latency_s()
            )


class TestBatchGEMMExecutor:
    def test_exact_against_closed_form_when_tasks_divide_tiles(self):
        eng = engine()
        shape = GEMMShape(m=128, k=768, n=768)  # 36*128 tasks over 96 tiles
        for model in (
            DEFAULT_BATCH_COST,
            BatchCostModel.streamed(),
            BatchCostModel(double_buffering=False),
        ):
            executor = BatchGEMMExecutor(eng, model)
            for batch in (1, 2, 8):
                executed = executor.execute(shape, batch_size=batch)
                assert executed.total_latency_s == pytest.approx(
                    eng.gemm_latency_s(shape, batch_size=batch, cost_model=model),
                    rel=1e-12,
                )

    def test_within_one_wave_on_ragged_shapes(self):
        eng = engine()
        shape = GEMMShape(m=77, k=300, n=515)  # tasks do not divide the tiles
        executor = BatchGEMMExecutor(eng)
        for batch in (1, 3, 7):
            executed = executor.execute(shape, batch_size=batch)
            analytic = eng.gemm_latency_s(shape, batch_size=batch)
            assert abs(executed.total_latency_s - analytic) <= eng.tile_vmm_latency_s()

    def test_busy_time_and_utilization(self):
        eng = engine()
        executed = BatchGEMMExecutor(eng).execute(GEMMShape(128, 768, 768), batch_size=2)
        assert executed.num_tasks == 2 * 36 * 128
        assert 0.0 < executed.utilization <= 1.0

    def test_streamed_prologue_delays_every_tile(self):
        eng = engine()
        shape = GEMMShape(m=8, k=128, n=128)
        resident = BatchGEMMExecutor(eng, DEFAULT_BATCH_COST).execute(shape)
        streamed = BatchGEMMExecutor(eng, BatchCostModel.streamed()).execute(shape)
        assert streamed.streaming_makespan_s == resident.streaming_makespan_s
        assert streamed.total_latency_s == pytest.approx(
            resident.total_latency_s + eng.programming_latency_s(shape)
        )

    def test_rejects_bad_batch(self):
        with pytest.raises(ValueError):
            BatchGEMMExecutor(engine()).execute(GEMMShape(1, 1, 1), batch_size=0)

    def test_rejects_fractional_sizes_naming_them(self):
        executor = BatchGEMMExecutor(engine())
        shape = GEMMShape(8, 128, 128)
        with pytest.raises(ValueError, match="batch_size must be an integer, got 2.5"):
            executor.execute(shape, batch_size=2.5)
        with pytest.raises(ValueError, match="tiles_available must be an integer, got 2.5"):
            executor.execute(shape, tiles_available=2.5)
        with pytest.raises(ValueError, match="batch_size must be an integer, got 2.5"):
            engine().gemm_latency_s(shape, batch_size=2.5)

    def test_accepts_numpy_integer_sizes(self):
        executor = BatchGEMMExecutor(engine())
        shape = GEMMShape(8, 128, 128)
        assert executor.execute(
            shape, batch_size=np.int64(3), tiles_available=np.int32(5)
        ) == executor.execute(shape, batch_size=3, tiles_available=5)
