"""Property suite for batch-aware GEMM pricing.

Randomised shapes, tile budgets and batch sizes — the pricing invariants
the serving stack leans on hold for every cost-model configuration:

* batch latency is monotone non-decreasing and sublinear in batch size;
* ``batch_size = 1`` is bit-identical to the pre-refactor seed formula
  (``ceil(tiles_for * m / parallel) * tile_vmm_latency``, no programming);
* energy never decreases when the batch grows;
* amortised programming energy is exactly one ``programming_energy_j``
  per operand, independent of the batch size.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batch_cost import BatchCostModel
from repro.core.config import MatMulEngineConfig
from repro.core.matmul_engine import GEMMShape, MatMulEngine

shapes = st.builds(
    GEMMShape,
    m=st.integers(min_value=1, max_value=64),
    k=st.integers(min_value=1, max_value=512),
    n=st.integers(min_value=1, max_value=512),
)

engines = st.builds(
    lambda tiles, dup: MatMulEngine(
        MatMulEngineConfig(num_tiles=tiles, allow_duplication=dup)
    ),
    tiles=st.integers(min_value=1, max_value=96),
    dup=st.booleans(),
)

cost_models = st.builds(
    BatchCostModel,
    weight_policy=st.sampled_from(["resident", "streamed"]),
    double_buffering=st.booleans(),
    inter_request_parallelism=st.booleans(),
)

batches = st.integers(min_value=1, max_value=40)


@settings(max_examples=80, deadline=None)
@given(engine=engines, shape=shapes, model=cost_models, batch=batches)
def test_latency_monotone_non_decreasing_in_batch(engine, shape, model, batch):
    smaller = engine.gemm_latency_s(shape, batch_size=batch, cost_model=model)
    larger = engine.gemm_latency_s(shape, batch_size=batch + 1, cost_model=model)
    assert larger >= smaller


@settings(max_examples=80, deadline=None)
@given(engine=engines, shape=shapes, model=cost_models, batch=batches)
def test_latency_sublinear_in_batch(engine, shape, model, batch):
    single = engine.gemm_latency_s(shape, batch_size=1, cost_model=model)
    batched = engine.gemm_latency_s(shape, batch_size=batch, cost_model=model)
    assert batched <= batch * single * (1 + 1e-12)
    if batch > 1 and model.charges_programming:
        # the one-time programming charge amortises strictly
        assert batched < batch * single


@settings(max_examples=80, deadline=None)
@given(engine=engines, shape=shapes, model=cost_models)
def test_batch_one_is_bit_identical_to_seed_formula(engine, shape, model):
    """At batch 1 the streaming price IS the pre-refactor formula, bit for bit."""
    tiles = engine.config.num_tiles
    if engine.config.allow_duplication:
        parallel = tiles
    else:
        parallel = min(tiles, engine._tiles_for(shape))
    seed_value = (
        math.ceil(engine.gemm_tile_vmms(shape) / parallel) * engine.tile_vmm_latency_s()
    )
    assert engine.gemm_streaming_latency_s(shape, 1, model) == seed_value
    if not model.charges_programming:
        assert engine.gemm_latency_s(shape, batch_size=1, cost_model=model) == seed_value


@settings(max_examples=80, deadline=None)
@given(engine=engines, shape=shapes, model=cost_models, batch=batches)
def test_energy_never_decreases_with_batch(engine, shape, model, batch):
    smaller = engine.gemm_batch_cost(shape, batch, model).energy_j
    larger = engine.gemm_batch_cost(shape, batch + 1, model).energy_j
    assert larger > smaller  # streaming energy is strictly per-row


@settings(max_examples=80, deadline=None)
@given(engine=engines, shape=shapes, batch=batches)
def test_amortised_programming_energy_is_one_write_per_operand(engine, shape, batch):
    streamed = BatchCostModel.streamed()
    cost = engine.gemm_batch_cost(shape, batch, streamed)
    assert cost.programming_energy_j == engine.programming_energy_j(shape)
    # the charge is independent of the batch that amortises it
    single = engine.gemm_batch_cost(shape, 1, streamed)
    assert cost.programming_energy_j == single.programming_energy_j
    assert cost.energy_j == cost.programming_energy_j + cost.streaming_energy_j


@settings(max_examples=80, deadline=None)
@given(engine=engines, shape=shapes, batch=batches)
def test_double_buffering_only_ever_helps_latency(engine, shape, batch):
    buffered = engine.gemm_latency_s(
        shape, batch_size=batch, cost_model=BatchCostModel(double_buffering=True)
    )
    serialized = engine.gemm_latency_s(
        shape, batch_size=batch, cost_model=BatchCostModel(double_buffering=False)
    )
    assert buffered <= serialized
    # and never changes what a batch of one costs
    if batch == 1:
        assert buffered == serialized
