"""Differential test of the lockstep-block GEMM executor against a per-task oracle.

:class:`PerTaskGEMMExecutor` is the executor's original discrete-event
loop, kept verbatim as the exact reference: one
:class:`~repro.core.events.EventLoop` event per tile-level VMM task, each
dispatched to the first tile that frees (ties to the tile queued first).
:class:`~repro.core.batch_cost.BatchGEMMExecutor` simulates the same
schedule one block of lockstep tiles at a time, so the two must agree bit
for bit on the makespan, the tile and task counts and the programming
prologue.  ``busy_s`` is a closed form in the new executor and a running
sum in the oracle, so it agrees to rounding only — and, unlike the running
sum, never pushes ``utilization`` above one by more than an ulp.

Stub engines reach what real engine configurations cannot: arbitrary task
counts around the tile count, and latencies that are equal or exactly 2:1,
where blocks in different states free at the same instant and only the
push order decides which takes the next task.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.batch_cost import (
    DEFAULT_BATCH_COST,
    BatchCostModel,
    BatchGEMMExecutor,
    ExecutedGEMMSchedule,
)
from repro.core.config import MatMulEngineConfig
from repro.core.events import ARRIVE, FREE, EventLoop, ServerPool
from repro.core.matmul_engine import GEMMShape, MatMulEngine
from repro.utils.validation import require_positive


class PerTaskGEMMExecutor:
    """The per-task event loop the block executor replaced (reference only)."""

    def __init__(self, engine, cost_model: BatchCostModel | None = None) -> None:
        self.engine = engine
        self.cost_model = cost_model or DEFAULT_BATCH_COST

    def execute(
        self,
        shape: GEMMShape,
        batch_size: int = 1,
        tiles_available: int | None = None,
    ) -> ExecutedGEMMSchedule:
        """Simulate the batched GEMM and report its measured schedule."""
        require_positive(batch_size, "batch_size")
        engine = self.engine
        model = self.cost_model
        tiles = tiles_available if tiles_available is not None else engine.config.num_tiles
        require_positive(tiles, "tiles_available")
        parallel = engine.gemm_parallel_tiles(shape, tiles)
        tasks_per_request = engine.gemm_tile_vmms(shape)
        num_tasks = tasks_per_request * batch_size

        full = engine.tile_vmm_latency_s()
        overlapped = (
            engine.tile_vmm_overlapped_latency_s() if model.double_buffering else full
        )
        programming = (
            engine.programming_latency_s(shape) if model.charges_programming else 0.0
        )

        loop = EventLoop()
        pool = ServerPool(parallel)
        for tile in range(parallel):
            loop.schedule(0.0, ARRIVE, tile)

        # tiles never starve while tasks remain (the whole batch is queued
        # at t = 0), so each tile's completion time is an exact product sum
        # of its served task counts — no cumulative floating-point drift,
        # and the uniform batch-1 case lands bit-identically on the
        # closed-form ``waves * tile_vmm_latency`` arithmetic
        full_served = [0] * parallel
        overlapped_served = [0] * parallel
        dispatched = 0
        makespan = 0.0
        while loop:
            time, kind, (tile,) = loop.pop()
            if kind == FREE:
                pool.release(tile)
            if dispatched >= num_tasks:
                continue
            # the first request's rows interleave with dependent stages and
            # stream serialized; later requests' rows are double-buffered
            if dispatched < tasks_per_request:
                full_served[tile] += 1
                service = full
            else:
                overlapped_served[tile] += 1
                service = overlapped
            dispatched += 1
            pool.acquire(tile)
            pool.occupy(service)
            if overlapped_served[tile]:
                end = full_served[tile] * full + overlapped_served[tile] * overlapped
            else:
                end = full_served[tile] * full
            makespan = max(makespan, end)
            loop.schedule(end, FREE, tile)

        return ExecutedGEMMSchedule(
            shape=shape,
            batch_size=batch_size,
            num_tiles=parallel,
            num_tasks=num_tasks,
            programming_latency_s=programming,
            streaming_makespan_s=makespan,
            busy_s=pool.busy_s,
        )


@dataclass(frozen=True)
class StubEngine:
    """The slice of :class:`MatMulEngine` both executors read, freely sized."""

    num_tiles: int
    tasks_per_request: int
    full_s: float
    overlapped_s: float

    @property
    def config(self) -> "StubEngine":
        return self  # the oracle reads ``engine.config.num_tiles``

    def gemm_parallel_tiles(self, shape, tiles_available=None) -> int:
        return self.num_tiles if tiles_available is None else tiles_available

    def gemm_tile_vmms(self, shape) -> int:
        return self.tasks_per_request

    def tile_vmm_latency_s(self) -> float:
        return self.full_s

    def tile_vmm_overlapped_latency_s(self) -> float:
        return self.overlapped_s

    def programming_latency_s(self, shape) -> float:
        return 3.0 * self.full_s


COST_MODELS = (
    DEFAULT_BATCH_COST,
    BatchCostModel.streamed(),
    BatchCostModel(double_buffering=False),
)
#: Per-request shapes small enough for the per-task oracle: 1 to 576 tile
#: tasks per request, below, at and above every tile budget below.
SHAPES = (
    GEMMShape(1, 1, 1),
    GEMMShape(8, 128, 128),
    GEMMShape(3, 200, 300),
    GEMMShape(13, 300, 515),
    GEMMShape(16, 768, 768),
    GEMMShape(4, 768, 3072),
)
ENGINES = (
    MatMulEngine(MatMulEngineConfig(num_tiles=7)),
    MatMulEngine(MatMulEngineConfig(num_tiles=16)),
    MatMulEngine(MatMulEngineConfig(num_tiles=96)),
    MatMulEngine(MatMulEngineConfig(num_tiles=96, allow_duplication=False)),
)
BATCHES = range(1, 17)


def assert_matches_oracle(engine, model, shape, batch) -> ExecutedGEMMSchedule:
    executed = BatchGEMMExecutor(engine, model).execute(shape, batch_size=batch)
    oracle = PerTaskGEMMExecutor(engine, model).execute(shape, batch_size=batch)
    assert executed.streaming_makespan_s.hex() == oracle.streaming_makespan_s.hex()
    assert executed.programming_latency_s.hex() == oracle.programming_latency_s.hex()
    assert executed.num_tiles == oracle.num_tiles
    assert executed.num_tasks == oracle.num_tasks
    assert executed.busy_s == pytest.approx(oracle.busy_s, rel=1e-10)
    return executed


@st.composite
def stub_engines(draw) -> StubEngine:
    tiles = draw(st.integers(min_value=1, max_value=130))
    tasks = draw(
        st.one_of(
            st.integers(min_value=1, max_value=500),
            st.integers(min_value=1, max_value=tiles),
            st.sampled_from([max(tiles - 1, 1), tiles, tiles + 1]),
        )
    )
    # a uniformly drawn mantissa makes products of task counts and
    # latencies round unevenly, so equal-time blocks in different states
    # surface; 2:1 only matters under double buffering, the legacy model
    # serves every task at ``full``
    mantissa = 1 + draw(st.integers(min_value=0, max_value=2**52 - 1)) / 2**52
    full = math.ldexp(mantissa, draw(st.integers(min_value=-30, max_value=-10)))
    return StubEngine(tiles, tasks, full, full / 2)


class TestAgainstPerTaskOracle:
    @settings(max_examples=1000, deadline=None)
    @given(
        engine=stub_engines(),
        model=st.sampled_from(COST_MODELS),
        batch=st.integers(min_value=1, max_value=16),
    )
    # equal-time blocks in different states: only the push order decides
    # which takes the next task (a full sub-block pushed after its
    # overlapped sibling fails the first, blocks ordered by size the second)
    @example(StubEngine(3, 1, 0.0009287206608122229, 0.00046436033040611147),
             BatchCostModel(double_buffering=False), 16)
    @example(StubEngine(9, 5, 0.0007377645553943815, 0.0003688822776971908),
             DEFAULT_BATCH_COST, 7)
    def test_stub_engines_bit_identical(self, engine, model, batch):
        assert_matches_oracle(engine, model, SHAPES[0], batch)

    @pytest.mark.parametrize(
        "engine", ENGINES, ids=lambda e: f"{e.config.num_tiles}-dup{e.config.allow_duplication}"
    )
    @pytest.mark.parametrize("model", COST_MODELS, ids=("default", "streamed", "legacy"))
    def test_real_engines_bit_identical_and_never_over_utilized(self, engine, model):
        for shape, batch in itertools.product(SHAPES, BATCHES):
            executed = assert_matches_oracle(engine, model, shape, batch)
            # the running sum of task services overshot one by up to 4e-12
            assert executed.utilization <= 1 + 2**-52
