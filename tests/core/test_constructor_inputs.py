"""Bad constructor values fail loudly, naming the field and the value.

Fractional counts used to be priced (two and a half softmax engines) or
to crash later with a ``TypeError``, and infinite times built silently
and surfaced as NaN schedule fields or infinite energies.  One hypothesis
sweep draws NaN, ±inf, negative, zero and fractional values wherever they
are invalid and requires each constructor to reject them at once with a
``ValueError`` whose message names the field and the value.
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
from repro.core.scheduler import AttentionExecutor, PipelineExecutor, StageJitter
from repro.core.softmax_engine import RRAMSoftmaxEngine
from repro.serving import PricingCache, StarServiceModel

NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
NEGATIVE = st.floats(max_value=-1e-300, allow_infinity=False) | st.integers(max_value=-1)
FRACTIONAL = st.floats(min_value=0.0, max_value=1e6).filter(lambda x: not x.is_integer())

#: Invalid draws per kind of field.
INVALID = {
    # a count of servers, tiles or tokens: a positive integer
    "count": NON_FINITE | NEGATIVE | st.sampled_from([0, 0.0]) | FRACTIONAL,
    # a time, energy or spread: finite and non-negative
    "time": NON_FINITE | NEGATIVE,
    # a power fraction: within [0, 1]
    "fraction": NON_FINITE | NEGATIVE | st.floats(min_value=1.0, max_value=1e6, exclude_min=True),
}

ENGINE = MatMulEngine()
POOL = [RRAMSoftmaxEngine()]
RESOURCES = ChipResources()
ACCELERATOR = STARAccelerator(resources=RESOURCES)

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
    ],
)
def test_reported_inputs_fail_at_construction(build, message):
    with pytest.raises(ValueError, match=message):
        build()
