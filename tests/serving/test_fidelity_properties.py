"""Fidelity-tiering invariants: template exactness, jitter bounds, sharding.

Three property families pin the tiered-fidelity serving path
(:mod:`repro.core.schedule_cache` + ``TieredServiceModel``):

* a jitter-free :class:`ScheduleTemplate` reproduces the cold
  ``executed_model_schedule`` latency **bit-exactly** — the template is a
  cache of the executed run, not an approximation of it;
* every jittered resample is bounded below by the jitter-free critical
  path (speedups are absorbed by sibling stages, slowdowns add), so the
  executed tier can only lengthen the tail, never shorten it;
* the sharded simulator's per-shard sampling streams reproduce the
  serial (``parallel=False``) run bit-exactly — tier assignment and
  latencies — for the same seed, as with every other random stream in
  :mod:`repro.serving.sharded`.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.schedule_cache import (
    NUM_STAGES,
    ScheduleTemplate,
    build_schedule_template,
)
from repro.nn.bert import BertConfig, BertWorkload
from repro.serving import (
    ChipFleet,
    DynamicBatcher,
    FixedServiceModel,
    PoissonArrivals,
    ShardedServingSimulator,
    TieredServiceModel,
)

# tiny-but-varied executed workloads: small enough that the pipeline
# executor runs in milliseconds, varied enough to exercise the template
tiny_workloads = st.fixed_dictionaries(
    {
        "num_layers": st.integers(min_value=1, max_value=3),
        "num_heads": st.sampled_from([1, 2]),
        "head_dim": st.sampled_from([8, 16]),
        "intermediate": st.sampled_from([32, 64]),
        "seq_len": st.sampled_from([8, 16, 32]),
        "batch": st.integers(min_value=1, max_value=3),
    }
)

# synthetic templates: the resampling math is pure arithmetic, so its
# bound properties hold for any positive steady intervals, not just ones
# an accelerator produced
synthetic_templates = st.builds(
    ScheduleTemplate,
    batch_size=st.integers(min_value=1, max_value=8),
    seq_len=st.integers(min_value=8, max_value=512),
    num_layers=st.integers(min_value=1, max_value=24),
    num_rows=st.integers(min_value=2, max_value=100000),
    base_latency_s=st.floats(min_value=1e-6, max_value=1.0),
    energy_j=st.floats(min_value=0.0, max_value=1.0),
    steady_row_s=st.tuples(
        *[st.floats(min_value=1e-12, max_value=1e-6)] * NUM_STAGES
    ),
)


def _workload(params) -> BertWorkload:
    config = BertConfig(
        num_layers=params["num_layers"],
        hidden=params["num_heads"] * params["head_dim"],
        num_heads=params["num_heads"],
        intermediate=params["intermediate"],
    )
    return BertWorkload(config=config, seq_len=params["seq_len"]).with_batch(
        params["batch"]
    )


class TestTemplateExactness:
    @given(tiny_workloads)
    @settings(max_examples=15, deadline=None)
    def test_jitter_free_template_matches_cold_executed_run(self, params):
        """Template base latency == executed_model_schedule, bit-exact."""
        from repro.core.accelerator import STARAccelerator

        workload = _workload(params)
        accelerator = STARAccelerator()
        template = build_schedule_template(accelerator, workload)
        cold = accelerator.executed_model_schedule(workload).total_latency_s
        assert template.base_latency_s == cold

    @given(tiny_workloads)
    @settings(max_examples=10, deadline=None)
    def test_accelerators_on_one_chip_share_templates_and_pricing_slot(self, params):
        """One ChipResources and one batch cost: identical templates, one slot."""
        from repro.core.accelerator import ChipResources, STARAccelerator
        from repro.core.batch_cost import BatchCostModel
        from repro.serving import PricingCache, StarServiceModel

        workload = _workload(params)
        resources, cost = ChipResources(), BatchCostModel.streamed()
        first = STARAccelerator(resources=resources, batch_cost=cost)
        second = STARAccelerator(resources=resources, batch_cost=cost)
        a = build_schedule_template(first, workload)
        b = build_schedule_template(second, workload)
        assert a.base_latency_s == b.base_latency_s
        assert a.steady_row_s == b.steady_row_s
        assert a.energy_j == b.energy_j
        cache = PricingCache()
        slots = {
            StarServiceModel(accelerator, workload.config, cache=cache)._slot
            for accelerator in (first, second)
        }
        other = STARAccelerator(num_softmax_engines=16, batch_cost=cost)
        assert len(slots) == 1
        assert StarServiceModel(other, workload.config, cache=cache)._slot not in slots


class TestJitterBounds:
    @given(synthetic_templates, st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=100, deadline=None)
    def test_unit_factors_reproduce_base_exactly(self, template, seed):
        factors = np.ones((template.num_layers, NUM_STAGES))
        assert template.sample_latency_s(factors) == template.base_latency_s

    @given(
        synthetic_templates,
        st.floats(min_value=1e-3, max_value=1.0),
        st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=100, deadline=None)
    def test_jittered_draws_bounded_below_by_critical_path(
        self, template, sigma, seed
    ):
        """Resampled latency >= the jitter-free critical path, always."""
        rng = np.random.default_rng(seed)
        for _ in range(5):
            assert template.resample(rng, sigma) >= template.base_latency_s

    @given(synthetic_templates, st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=50, deadline=None)
    def test_sigma_zero_is_exact_and_leaves_generator_untouched(
        self, template, seed
    ):
        rng = np.random.default_rng(seed)
        before = rng.bit_generator.state
        assert template.resample(rng, 0.0) == template.base_latency_s
        assert rng.bit_generator.state == before

    @given(synthetic_templates)
    @settings(max_examples=50, deadline=None)
    def test_template_survives_pickling(self, template):
        import pickle

        clone = pickle.loads(pickle.dumps(template))
        assert clone.base_latency_s == template.base_latency_s
        assert clone.steady_row_s == template.steady_row_s
        factors = np.full((template.num_layers, NUM_STAGES), 1.25)
        assert clone.sample_latency_s(factors) == template.sample_latency_s(factors)


def _synthetic_template(batch: int, seq_len: int) -> ScheduleTemplate:
    return ScheduleTemplate(
        batch_size=batch,
        seq_len=seq_len,
        num_layers=2,
        num_rows=max(2, 4 * batch),
        base_latency_s=1e-3 * batch,
        energy_j=1e-6 * batch,
        steady_row_s=(1e-8, 3e-8, 1e-8),
    )


sharded_scenarios = st.fixed_dictionaries(
    {
        "num_requests": st.integers(min_value=20, max_value=80),
        "rate_rps": st.floats(min_value=100.0, max_value=2000.0),
        "sample_fraction": st.sampled_from([0.1, 0.5, 1.0]),
        "seed": st.integers(min_value=0, max_value=2**16),
    }
)


class TestShardedTierDeterminism:
    @given(sharded_scenarios)
    @settings(max_examples=5, deadline=None)
    def test_serial_and_parallel_shards_agree_bit_exactly(self, params):
        """Same seed => same tier assignment and latencies, any worker mode."""
        max_batch = 4
        templates = {
            (batch, 128): _synthetic_template(batch, 128)
            for batch in range(1, max_batch + 1)
        }

        def run(parallel):
            model = TieredServiceModel(
                FixedServiceModel(1e-3, request_energy_j=1e-6),
                sample_fraction=params["sample_fraction"],
                jitter_sigma=0.2,
                seed=params["seed"],
                templates=templates,
            )
            fleet = ChipFleet(model, num_chips=2)
            simulator = ShardedServingSimulator(
                fleet,
                DynamicBatcher(max_batch_size=max_batch, max_wait_s=1e-3),
                num_shards=2,
                parallel=parallel,
            )
            return simulator.run_poisson(
                PoissonArrivals(
                    params["rate_rps"], seq_len=128, seed=params["seed"]
                ),
                params["num_requests"],
            )

        serial = run(False)
        parallel = run(True)
        assert np.array_equal(serial.batches.tier, parallel.batches.tier)
        assert np.array_equal(
            serial.requests.completion_s, parallel.requests.completion_s
        )
        assert np.array_equal(serial.requests.index, parallel.requests.index)
        assert serial.format_table() == parallel.format_table()
