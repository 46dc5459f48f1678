"""Bad constructor values fail loudly, naming the field and the value.

Fractional counts used to be priced (two and a half softmax engines),
truncated (a 12.5-token request served as 12 tokens) or to crash later
with a ``TypeError``, and infinite times built silently and surfaced as
NaN schedule fields or infinite energies.  One hypothesis sweep draws NaN,
±inf, negative, zero and fractional values wherever they are invalid and
requires each constructor, generator and run entry point to reject them
at once with a ``ValueError`` whose message names the field and the value.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.accelerator import ChipResources, PowerState, STARAccelerator
from repro.core.config import MatMulEngineConfig, PipelineConfig
from repro.core.matmul_engine import MatMulEngine
from repro.core.schedule_cache import ScheduleTemplate
from repro.core.scheduler import AttentionExecutor, PipelineExecutor, StageJitter
from repro.core.softmax_engine import RRAMSoftmaxEngine
from repro.serving import (
    NO_BATCHING,
    AdmissionController,
    Autoscaler,
    ChipFleet,
    ClosedLoopClients,
    DayCurveArrivals,
    DynamicBatcher,
    ExponentialServiceModel,
    FixedServiceModel,
    MMPPArrivals,
    PoissonArrivals,
    PricingCache,
    Request,
    RetryPolicy,
    Router,
    ServingSimulator,
    ShardedServingSimulator,
    SLOClass,
    SLOPolicy,
    StarServiceModel,
    TieredServiceModel,
    TraceArrivals,
)
from repro.serving.arrivals import requests_from_arrays

NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
NEGATIVE = st.floats(max_value=-1e-300, allow_infinity=False) | st.integers(max_value=-1)
FRACTIONAL = st.floats(min_value=0.0, max_value=1e6).filter(lambda x: not x.is_integer())

#: Invalid draws per kind of field.
INVALID = {
    # a count of servers, tiles or tokens: a positive integer
    "count": NON_FINITE | NEGATIVE | st.sampled_from([0, 0.0]) | FRACTIONAL,
    # an index or class id: a non-negative integer
    "index": NON_FINITE | NEGATIVE | FRACTIONAL,
    # a time, energy or spread: finite and non-negative
    "time": NON_FINITE | NEGATIVE,
    # a power fraction: within [0, 1]
    "fraction": NON_FINITE | NEGATIVE | st.floats(min_value=1.0, max_value=1e6, exclude_min=True),
}

ENGINE = MatMulEngine()
POOL = [RRAMSoftmaxEngine()]
RESOURCES = ChipResources()
ACCELERATOR = STARAccelerator(resources=RESOURCES)
FIXED = FixedServiceModel(1e-3)
SIMULATOR = ServingSimulator(ChipFleet(FIXED), NO_BATCHING)
CLIENTS = ClosedLoopClients(2, 0.01)
SHARDED = ShardedServingSimulator(ChipFleet(FIXED, num_chips=2), parallel=False)
POISSON = PoissonArrivals(100.0)
MMPP = MMPPArrivals.on_off(100.0)
SLO = SLOPolicy((SLOClass("short", 0.05), SLOClass("long")))
TAGGED = POISSON.generate(5)


def template(**fields) -> ScheduleTemplate:
    """A one-layer template of four rows, with ``fields`` overriding its values."""
    values = dict(
        batch_size=1, seq_len=64, num_layers=1, num_rows=4,
        base_latency_s=1e-3, energy_j=0.0, steady_row_s=(1e-6, 2e-6, 1e-6),
    )
    return ScheduleTemplate(**{**values, **fields})


#: ``(constructor, field, kind, build)``: ``build(value)`` passes the value as that field.
CASES = [
    ("STARAccelerator", "num_softmax_engines", "count",
     lambda v: STARAccelerator(num_softmax_engines=v)),
    ("STARAccelerator+resources", "num_softmax_engines", "count",
     lambda v: STARAccelerator(num_softmax_engines=v, resources=RESOURCES)),
    ("ChipResources", "num_softmax_engines", "count",
     lambda v: ChipResources(num_softmax_engines=v)),
    ("ChipResources", "idle_power_fraction", "fraction",
     lambda v: ChipResources(idle_power_fraction=v)),
    ("PowerState", "sleep_power_fraction", "fraction",
     lambda v: PowerState(sleep_power_fraction=v)),
    ("PowerState", "entry_latency_s", "time", lambda v: PowerState(entry_latency_s=v)),
    ("PowerState", "exit_latency_s", "time", lambda v: PowerState(exit_latency_s=v)),
    ("PowerState", "wake_energy_j", "time", lambda v: PowerState(wake_energy_j=v)),
    ("PipelineConfig", "stage_handoff_s", "time", lambda v: PipelineConfig(stage_handoff_s=v)),
    ("MatMulEngineConfig", "num_tiles", "count", lambda v: MatMulEngineConfig(num_tiles=v)),
    ("PipelineExecutor", "streams", "count", lambda v: PipelineExecutor(streams=v)),
    ("PipelineExecutor", "softmax_engines", "count",
     lambda v: PipelineExecutor(softmax_engines=v)),
    ("AttentionExecutor", "softmax_engines", "count",
     lambda v: AttentionExecutor(ENGINE, softmax_engines=v)),
    ("AttentionExecutor", "tiles_per_stream", "count",
     lambda v: AttentionExecutor(ENGINE, POOL, tiles_per_stream=v)),
    ("StageJitter", "sigma", "time", lambda v: StageJitter(sigma=v)),
    ("StarServiceModel", "seq_len", "count",
     lambda v: StarServiceModel(ACCELERATOR, cache=PricingCache(), seq_len=v)),
    ("DynamicBatcher", "max_batch_size", "count", lambda v: DynamicBatcher(max_batch_size=v)),
    ("DynamicBatcher", "max_wait_s", "time", lambda v: DynamicBatcher(max_wait_s=v)),
    ("AdmissionController", "max_queue_depth", "count",
     lambda v: AdmissionController(max_queue_depth=v)),
    ("AdmissionController", "degraded_max_batch", "count",
     lambda v: AdmissionController(degraded_max_batch=v)),
    ("RetryPolicy", "max_attempts", "count", lambda v: RetryPolicy(max_attempts=v)),
    ("FixedServiceModel", "request_latency_s", "time", lambda v: FixedServiceModel(v)),
    *[
        ("FixedServiceModel", name, "time", lambda v, name=name: FixedServiceModel(1e-3, **{name: v}))
        for name in (
            "request_energy_j", "idle_power_w", "reprogram_latency_s", "sleep_power_w",
            "sleep_entry_latency_s", "wake_latency_s", "wake_energy_j",
        )
    ],
    ("ExponentialServiceModel", "mean_s", "time", lambda v: ExponentialServiceModel(v)),
    ("ExponentialServiceModel", "request_energy_j", "time",
     lambda v: ExponentialServiceModel(1e-3, request_energy_j=v)),
    ("ExponentialServiceModel", "idle_power_w", "time",
     lambda v: ExponentialServiceModel(1e-3, idle_power_w=v)),
    ("TieredServiceModel", "jitter_sigma", "time",
     lambda v: TieredServiceModel(FIXED, jitter_sigma=v)),
    ("ScheduleTemplate", "base_latency_s", "time", lambda v: template(base_latency_s=v)),
    ("ScheduleTemplate", "energy_j", "time", lambda v: template(energy_j=v)),
    ("ScheduleTemplate.resample", "sigma", "time",
     lambda v: template().resample(np.random.default_rng(0), sigma=v)),
    ("ScheduleTemplate", "steady_row_s", "time",
     lambda v: template(steady_row_s=(1e-6, v, 1e-6))),
    *[
        ("ScheduleTemplate", name, "count", lambda v, name=name: template(**{name: v}))
        for name in ("batch_size", "seq_len", "num_layers", "num_rows")
    ],
    ("Request", "index", "index", lambda v: Request(v, 0.0, 64)),
    ("Request", "seq_len", "count", lambda v: Request(0, 0.0, v)),
    ("Request", "slo_class", "index", lambda v: Request(0, 0.0, 64, slo_class=v)),
    ("requests_from_arrays", "lens", "count",
     lambda v: requests_from_arrays(np.zeros(2), np.array([64, v]))),
    ("requests_from_arrays", "slo_classes", "index",
     lambda v: requests_from_arrays(np.zeros(2), np.full(2, 64), slo_classes=np.array([0, v]))),
    ("PoissonArrivals", "seq_len", "count", lambda v: PoissonArrivals(100.0, seq_len=v)),
    ("PoissonArrivals[choices]", "seq_len", "count",
     lambda v: PoissonArrivals(100.0, seq_len=(64, v))),
    ("PoissonArrivals.generate", "num_requests", "count", lambda v: POISSON.generate(v)),
    ("PoissonArrivals.generate", "index_offset", "index",
     lambda v: POISSON.generate(1, index_offset=v)),
    ("PoissonArrivals.shards", "num_shards", "count", lambda v: POISSON.shards(v)),
    ("TraceArrivals", "seq_len", "count", lambda v: TraceArrivals([0.0], seq_len=v)),
    ("TraceArrivals", "per_request_lens", "count",
     lambda v: TraceArrivals([0.0, 1.0], per_request_lens=[64, v])),
    ("TraceArrivals.generate", "num_requests", "count",
     lambda v: TraceArrivals([0.0, 1.0]).generate(v)),
    ("MMPPArrivals", "seq_len", "count", lambda v: MMPPArrivals.on_off(100.0, seq_len=v)),
    ("MMPPArrivals", "initial_state", "index",
     lambda v: MMPPArrivals((100.0, 0.0), ((-1.0, 1.0), (1.0, -1.0)), initial_state=v)),
    ("MMPPArrivals.generate", "num_requests", "count", lambda v: MMPP.generate(v)),
    ("MMPPArrivals.generate", "index_offset", "index",
     lambda v: MMPP.generate(1, index_offset=v)),
    ("DayCurveArrivals", "seq_len", "count", lambda v: DayCurveArrivals(100.0, seq_len=v)),
    ("DayCurveArrivals.generate", "num_requests", "count",
     lambda v: DayCurveArrivals(100.0).generate(v)),
    ("DayCurveArrivals.generate", "index_offset", "index",
     lambda v: DayCurveArrivals(100.0).generate(1, index_offset=v)),
    ("ClosedLoopClients", "num_clients", "count", lambda v: ClosedLoopClients(v, 0.01)),
    ("ClosedLoopClients", "seq_len", "count", lambda v: ClosedLoopClients(2, 0.01, seq_len=v)),
    ("ClosedLoopClients", "slo_class", "index",
     lambda v: ClosedLoopClients(2, 0.01, slo_class=[0, v])),
    ("ClosedLoopClients", "think_sigma", "time",
     lambda v: ClosedLoopClients(2, 0.01, think_distribution="lognormal", think_sigma=v)),
    ("SLOPolicy.tag_random", "weights[0]", "time",
     lambda v: SLO.tag_random(TAGGED, weights=(v, 1.0))),
    ("SLOPolicy.tag_by_length", "boundaries[0]", "count",
     lambda v: SLO.tag_by_length(TAGGED, boundaries=(v,))),
    ("ChipFleet", "num_chips", "count", lambda v: ChipFleet(FIXED, num_chips=v)),
    *[
        ("Autoscaler", name, "count", lambda v, name=name: Autoscaler(**{name: v}))
        for name in ("min_chips", "max_chips", "step", "initial_chips", "scale_up_queue_depth")
    ],
    ("Autoscaler", "interval_s", "time", lambda v: Autoscaler(interval_s=v)),
    ("ShardedServingSimulator", "num_shards", "count",
     lambda v: ShardedServingSimulator(ChipFleet(FIXED, num_chips=2), num_shards=v)),
    ("ShardedServingSimulator", "max_workers", "count",
     lambda v: ShardedServingSimulator(ChipFleet(FIXED, num_chips=2), max_workers=v)),
    ("ShardedServingSimulator.run_poisson", "num_requests", "count",
     lambda v: SHARDED.run_poisson(POISSON, v)),
    ("ServingSimulator.run_closed_loop", "num_requests", "count",
     lambda v: SIMULATOR.run_closed_loop(CLIENTS, v)),
]


@pytest.mark.parametrize(
    ("field", "kind", "build"),
    [pytest.param(field, kind, build, id=f"{name}.{field}") for name, field, kind, build in CASES],
)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_invalid_value_is_rejected_naming_field_and_value(field, kind, build, data):
    value = data.draw(INVALID[kind], label=field)
    with pytest.raises(ValueError) as rejected:
        build(value)
    message = str(rejected.value)
    assert field in message and str(value) in message, message


@pytest.mark.parametrize(
    ("build", "value"),
    [
        pytest.param(lambda v: STARAccelerator(num_softmax_engines=v).num_softmax_engines,
                     np.int64(3), id="STARAccelerator.num_softmax_engines"),
        pytest.param(lambda v: MatMulEngineConfig(num_tiles=v).num_tiles,
                     np.int32(8), id="MatMulEngineConfig.num_tiles"),
        pytest.param(lambda v: PipelineExecutor(streams=v, softmax_engines=v).streams,
                     np.int64(2), id="PipelineExecutor.streams"),
        pytest.param(lambda v: len(AttentionExecutor(ENGINE, softmax_engines=v).softmax_pool),
                     np.int64(2), id="AttentionExecutor.softmax_engines"),
        pytest.param(lambda v: PowerState(exit_latency_s=v, wake_energy_j=v).exit_latency_s,
                     0.0, id="PowerState.exit_latency_s"),
        pytest.param(lambda v: DynamicBatcher(max_batch_size=v).max_batch_size,
                     np.int64(4), id="DynamicBatcher.max_batch_size"),
        pytest.param(lambda v: DynamicBatcher(max_wait_s=v).max_wait_s,
                     0.0, id="DynamicBatcher.max_wait_s"),
        pytest.param(lambda v: AdmissionController(max_queue_depth=v).max_queue_depth,
                     np.int32(1), id="AdmissionController.max_queue_depth"),
        pytest.param(lambda v: Request(v, 0.0, 64, slo_class=v).slo_class,
                     np.int64(0), id="Request.slo_class"),
        pytest.param(lambda v: POISSON.generate(2, index_offset=v)[0].index,
                     0, id="PoissonArrivals.generate.index_offset"),
        # an integral float in a length array is exact, so it is accepted
        pytest.param(lambda v: TraceArrivals([0.0], per_request_lens=[v]).generate()[0].seq_len,
                     64.0, id="TraceArrivals.per_request_lens"),
        pytest.param(lambda v: Autoscaler(max_chips=v).max_chips,
                     np.int64(2), id="Autoscaler.max_chips"),
        pytest.param(lambda v: Router(stealing=v).stealing, False, id="Router.stealing"),
    ],
)
def test_valid_boundary_values_build(build, value):
    assert build(value) == value


@pytest.mark.parametrize(
    ("build", "message"),
    [
        # priced two and a half engines between the 2- and 3-engine chips
        pytest.param(lambda: STARAccelerator(num_softmax_engines=2.5),
                     "num_softmax_engines must be an integer, got 2.5", id="engines"),
        # built, then raised a TypeError on the first execution
        pytest.param(lambda: PipelineExecutor(streams=2.5),
                     "streams must be an integer, got 2.5", id="streams"),
        # built, then failed pricing as "tiles_available must be an integer"
        pytest.param(lambda: MatMulEngineConfig(num_tiles=2.5),
                     "num_tiles must be an integer, got 2.5", id="tiles"),
        # yielded a NaN steady-state interval and NaN softmax utilization
        pytest.param(lambda: PipelineConfig(stage_handoff_s=math.inf),
                     "stage_handoff_s must be finite, got inf", id="handoff"),
        # made ChipResources.wake_energy_j() infinite
        pytest.param(lambda: PowerState(exit_latency_s=math.inf),
                     "exit_latency_s must be finite, got inf", id="exit-latency"),
        # failed later, naming "score service times" instead of sigma
        pytest.param(lambda: StageJitter(sigma=math.inf),
                     "sigma must be finite, got inf", id="sigma"),
        # dispatched batches of 3 (50 requests at 5,000 rps on two chips)
        pytest.param(lambda: DynamicBatcher(2.5),
                     "max_batch_size must be an integer, got 2.5", id="batch-size"),
        pytest.param(lambda: AdmissionController(max_queue_depth=2.5),
                     "max_queue_depth must be an integer, got 2.5", id="queue-depth"),
        # five Poisson requests "completed" with makespan inf and a NaN p50
        pytest.param(lambda: DynamicBatcher(8, max_wait_s=math.inf),
                     "max_wait_s must be finite, got inf", id="max-wait"),
        # these failed only at dispatch, naming neither field
        pytest.param(lambda: FixedServiceModel(math.inf),
                     "request_latency_s must be finite, got inf", id="fixed-latency"),
        pytest.param(lambda: FixedServiceModel(1e-3, request_energy_j=math.inf),
                     "request_energy_j must be finite, got inf", id="fixed-energy"),
        pytest.param(lambda: ExponentialServiceModel(math.inf),
                     "mean_s must be finite, got inf", id="exponential-mean"),
        pytest.param(lambda: TieredServiceModel(FIXED, jitter_sigma=math.inf),
                     "jitter_sigma must be finite, got inf", id="jitter-sigma"),
        pytest.param(lambda: template(base_latency_s=math.inf),
                     "base_latency_s must be finite, got inf", id="template-latency"),
        pytest.param(lambda: template().resample(np.random.default_rng(0), sigma=math.inf),
                     "sigma must be finite and non-negative, got inf", id="resample-sigma"),
        # built; resample then failed on NumPy's "invalid value encountered"
        pytest.param(lambda: template(steady_row_s=(math.inf, 1e-6, 1e-6)),
                     r"steady_row_s\[0\] must be finite, got inf", id="template-steady-inf"),
        pytest.param(lambda: template(steady_row_s=(math.nan, 1e-6, 1e-6)),
                     r"steady_row_s\[0\] must be non-negative, got nan", id="template-steady-nan"),
        # built as a batch of 2
        pytest.param(lambda: template(batch_size=2.5),
                     "batch_size must be an integer, got 2.5", id="template-batch"),
        # built, and the report recorded a length of 12
        pytest.param(lambda: Request(0, 0.0, 12.5),
                     "seq_len must be an integer, got 12.5", id="request-seq-len"),
        # these truncated 12.5 to 12, or passed it through
        pytest.param(lambda: TraceArrivals([0.0, 1.0], per_request_lens=[12.5, 64]),
                     r"per_request_lens must be integers >= 1, got 12.5 at index 0",
                     id="trace-lens"),
        pytest.param(lambda: PoissonArrivals(100.0, seq_len=(12.5, 64)),
                     r"seq_len must be integers >= 1, got 12.5 at index 0", id="poisson-choices"),
        pytest.param(lambda: requests_from_arrays(np.zeros(2), np.array([12.5, 64.0])),
                     r"lens must be integers >= 1, got 12.5 at index 0", id="array-lens"),
        # failed as "'float' object is not iterable"
        pytest.param(lambda: PoissonArrivals(100.0, seq_len=12.5),
                     "seq_len must be an integer, got 12.5", id="poisson-seq-len"),
        # built two clients; served three requests; built
        pytest.param(lambda: ClosedLoopClients(2.5, 0.01),
                     "num_clients must be an integer, got 2.5", id="clients"),
        pytest.param(lambda: SIMULATOR.run_closed_loop(CLIENTS, 2.5),
                     "num_requests must be an integer, got 2.5", id="closed-loop-requests"),
        pytest.param(lambda: Autoscaler(min_chips=1.5),
                     "min_chips must be an integer, got 1.5", id="min-chips"),
        # these failed with TypeErrors naming no field
        pytest.param(lambda: ChipFleet(FIXED, num_chips=2.5),
                     "num_chips must be an integer, got 2.5", id="fleet-chips"),
        pytest.param(lambda: ShardedServingSimulator(ChipFleet(FIXED, num_chips=2), num_shards=1.5),
                     "num_shards must be an integer, got 1.5", id="shards"),
        pytest.param(lambda: POISSON.generate(2.5),
                     "num_requests must be an integer, got 2.5", id="poisson-generate"),
        pytest.param(lambda: DayCurveArrivals(100.0).generate(2.5),
                     "num_requests must be an integer, got 2.5", id="day-curve-generate"),
        pytest.param(lambda: SHARDED.run_poisson(POISSON, 10.5),
                     "num_requests must be an integer, got 10.5", id="run-poisson"),
        # built; 200 requests at 1,500 rps on two chips, one awake, made no
        # scale event, since the controller never ticked
        pytest.param(lambda: Autoscaler(interval_s=math.inf),
                     "interval_s must be finite, got inf", id="autoscale-interval"),
        # built; its run failed with "event time must be non-negative, got nan"
        pytest.param(lambda: ClosedLoopClients(2, 1e-3, think_distribution="lognormal",
                                               think_sigma=math.inf),
                     "think_sigma must be finite, got inf", id="think-sigma"),
        # failed in NumPy ("Probabilities contain NaN"), or warned, naming no field
        pytest.param(lambda: SLO.tag_random(TAGGED, weights=(math.nan, 1.0)),
                     r"weights\[0\] must be non-negative, got nan", id="weights-nan"),
        pytest.param(lambda: SLO.tag_random(TAGGED, weights=(math.inf, 1.0)),
                     r"weights\[0\] must be finite, got inf", id="weights-inf"),
        # failed with "cannot convert float NaN to integer"
        pytest.param(lambda: SLO.tag_by_length(TAGGED, boundaries=(math.nan,)),
                     r"boundaries\[0\] must be an integer, got nan", id="boundaries-nan"),
        # built with stealing on: the string is true
        pytest.param(lambda: Router(stealing="no"),
                     "stealing must be a bool, got 'no'", id="stealing"),
    ],
)
def test_reported_inputs_fail_at_construction(build, message):
    with pytest.raises(ValueError, match=message):
        build()
