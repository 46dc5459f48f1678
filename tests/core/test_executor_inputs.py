"""Bad inputs to the pipeline executor fail loudly, naming the offending value.

Non-finite service times used to run and return a NaN or infinite
makespan, a fractional ``stream_of`` was truncated to a stream index, a
zero softmax speedup was accepted at construction and failed only at the
first execution, and a NaN stage handoff passed validation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import PipelineConfig
from repro.core.scheduler import PipelineExecutor


@pytest.mark.parametrize("granularity", ["vector", "operand"])
@pytest.mark.parametrize(
    ("stage", "index", "value"),
    [
        ("score", 2, np.nan),
        ("softmax", 0, np.inf),
        ("context", 3, -np.inf),
    ],
)
def test_non_finite_service_times_name_stage_and_row(granularity, stage, index, value):
    services = {name: np.ones(4) for name in ("score", "softmax", "context")}
    services[stage][index] = value
    with pytest.raises(
        ValueError, match=rf"{stage} service times must be finite, got {value} at index {index}"
    ):
        PipelineExecutor(streams=2).execute_service_times(
            services["score"], services["softmax"], services["context"],
            granularity=granularity,
        )


@pytest.mark.parametrize(
    ("stream_of", "message"),
    [
        ([0.7, 0.2], "got 0.7 at row 0"),
        ([1.0, 1.5], "got 1.5 at row 1"),
        ([0.0, np.nan], "got nan at row 1"),
    ],
)
def test_fractional_stream_of_names_first_offender(stream_of, message):
    with pytest.raises(ValueError, match=f"integer stream indices, {message}"):
        PipelineExecutor(streams=2).execute_service_times(
            np.ones(2), np.ones(2), np.ones(2), stream_of=np.array(stream_of)
        )


def test_integral_float_stream_of_is_accepted():
    executor = PipelineExecutor(streams=2)
    as_float = executor.execute_service_times(
        np.ones(4), np.ones(4), np.ones(4), stream_of=np.array([1.0, 0.0, 1.0, 1.0])
    )
    as_int = executor.execute_service_times(
        np.ones(4), np.ones(4), np.ones(4), stream_of=np.array([1, 0, 1, 1])
    )
    assert as_float == as_int
    assert as_float.stream_of.tolist() == [1, 0, 1, 1]


@pytest.mark.parametrize(
    ("speedups", "message"),
    [
        ((0.0,), r"softmax_speedups\[0\] must be positive, got 0.0"),
        ((1.0, -2.0), r"softmax_speedups\[1\] must be positive, got -2.0"),
        ((1.0, np.nan), r"softmax_speedups\[1\] must be positive, got nan"),
        ((np.inf,), r"softmax_speedups\[0\] must be finite, got inf"),
    ],
)
def test_bad_softmax_speedups_rejected_at_construction(speedups, message):
    with pytest.raises(ValueError, match=message):
        PipelineExecutor(softmax_engines=len(speedups), softmax_speedups=speedups)


def test_records_are_built_on_first_access():
    schedule = PipelineExecutor(streams=2).execute_service_times(
        np.ones(3), np.full(3, 2.0), np.ones(3)
    )
    assert "records" not in vars(schedule)
    assert [r.softmax_start_s for r in schedule.records] == schedule.starts[:, 1].tolist()
    assert schedule.records is schedule.records


def test_nan_stage_handoff_rejected():
    # a NaN handoff used to make every executed timestamp NaN
    with pytest.raises(ValueError, match="stage_handoff_s must be non-negative, got nan"):
        PipelineConfig(stage_handoff_s=float("nan"))
