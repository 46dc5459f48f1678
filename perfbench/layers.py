"""The layer boundaries the traced run records, as public ``repro.*`` functions.

Each entry wraps one public function with a span named after its layer;
:func:`install` puts every wrapper in place for one traced repetition and
``Tracer.restore()`` removes them.  Layers a workload bypasses simply
record no spans, which is itself the measurement (a zero count).
"""

from __future__ import annotations

import numpy as np

from repro.core import schedule_cache
from repro.core.accelerator import STARAccelerator
from repro.core.batch_cost import BatchGEMMExecutor
from repro.core.cam_sub import CamSubCrossbar
from repro.core.divider import DividerUnit
from repro.core.exponent import ExponentialUnit
from repro.core.matmul_engine import MatMulEngine
from repro.core.schedule_cache import ScheduleTemplate
from repro.core.scheduler import PipelineExecutor
from repro.core.softmax_engine import RRAMSoftmaxEngine
from repro.rram.crossbar import AnalogCrossbar
from repro.serving.fleet import ChipFleet
from repro.serving.report import ServingReport
from repro.serving.simulator import ServingSimulator

from spans import Tracer

__all__ = ["HIGH_VOLUME", "install"]

#: Calls made often enough to report per-call latency percentiles.
HIGH_VOLUME = (
    "rram.crossbar.matvec_batch.ideal",
    "rram.crossbar.matvec_batch.noisy",
    "core.schedule_cache.resample",
    "serving.fleet.batch_latency_s",
)


def _crossbar_path(crossbar, *args, **kwargs) -> str:
    kernel = "ideal" if crossbar.noise.config.is_ideal else "noisy"
    return f"rram.crossbar.matvec_batch.{kernel}"


def _vectors(crossbar, inputs, *args, **kwargs) -> float:
    return float(np.shape(inputs)[0])


def _rows(engine, x, axis=-1) -> float:
    shape = np.shape(x)
    return float(np.prod(shape) // shape[axis]) if shape else 0.0


def _run_label(simulator, requests, label="serving") -> str:
    return f"serving.simulator.run.{label}"


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary of the stack with a recording span."""
    tracer.wrap(AnalogCrossbar, "matvec_batch", _crossbar_path, count=("vectors", _vectors))
    tracer.wrap(MatMulEngine, "program_operand", "core.matmul_engine.program_operand")
    tracer.wrap(MatMulEngine, "matmul", "core.matmul_engine.matmul")
    tracer.wrap(RRAMSoftmaxEngine, "softmax", "core.softmax_engine.softmax", count=("rows", _rows))
    tracer.wrap(RRAMSoftmaxEngine, "softmax_row", "core.softmax_engine.softmax_row")
    tracer.wrap(CamSubCrossbar, "process_batch", "core.cam_sub.process_batch")
    tracer.wrap(ExponentialUnit, "process_batch", "core.exponent.process_batch")
    tracer.wrap(DividerUnit, "divide_batch", "core.divider.divide_batch")
    tracer.wrap(
        schedule_cache, "build_schedule_template", "core.schedule_cache.build_schedule_template"
    )
    tracer.wrap(ScheduleTemplate, "resample", "core.schedule_cache.resample")
    tracer.wrap(
        STARAccelerator, "executed_model_schedule", "core.accelerator.executed_model_schedule"
    )
    tracer.wrap(STARAccelerator, "request_timing", "core.accelerator.request_timing")
    tracer.wrap(
        PipelineExecutor,
        "execute_service_times",
        "core.scheduler.PipelineExecutor.execute_service_times",
    )
    tracer.wrap(BatchGEMMExecutor, "execute", "core.batch_cost.BatchGEMMExecutor.execute")
    tracer.wrap(ChipFleet, "batch_latency_s", "serving.fleet.batch_latency_s")
    tracer.wrap(ServingSimulator, "run", _run_label)
    tracer.wrap(ServingReport, "summary", "serving.report.summary")
