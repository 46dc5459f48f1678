"""STAR's core contribution: the RRAM softmax engine, MatMul engine and pipeline."""

from repro.core.accelerator import (
    ChipResources,
    LayerLatencyBreakdown,
    ModelSchedule,
    RequestTiming,
    STARAccelerator,
)
from repro.core.access_stats import AccessStats
from repro.core.batch_cost import (
    BatchCostModel,
    BatchGEMMCost,
    BatchGEMMExecutor,
    DEFAULT_BATCH_COST,
    ExecutedGEMMSchedule,
)
from repro.core.cam_sub import CamSubBatchResult, CamSubCrossbar
from repro.core.config import (
    MatMulEngineConfig,
    PipelineConfig,
    SoftmaxEngineConfig,
    STARConfig,
)
from repro.core.counter import CounterBank
from repro.core.divider import DividerUnit
from repro.core.events import EventLoop, ServerPool
from repro.core.exponent import ExponentBatchResult, ExponentialUnit
from repro.core.matmul_engine import GEMMShape, MatMulEngine, ProgrammedOperand
from repro.core.pipeline import AttentionPipeline, PipelineSchedule, StageTiming
from repro.core.scheduler import (
    AttentionExecution,
    AttentionExecutor,
    ExecutedSchedule,
    PipelineExecutor,
    RowRecord,
    StageJitter,
)
from repro.core.softmax_engine import RRAMSoftmaxEngine

__all__ = [
    "STARConfig",
    "SoftmaxEngineConfig",
    "MatMulEngineConfig",
    "PipelineConfig",
    "AccessStats",
    "CamSubCrossbar",
    "CamSubBatchResult",
    "ExponentialUnit",
    "ExponentBatchResult",
    "CounterBank",
    "DividerUnit",
    "RRAMSoftmaxEngine",
    "MatMulEngine",
    "GEMMShape",
    "ProgrammedOperand",
    "BatchCostModel",
    "BatchGEMMCost",
    "BatchGEMMExecutor",
    "DEFAULT_BATCH_COST",
    "ExecutedGEMMSchedule",
    "AttentionPipeline",
    "StageTiming",
    "PipelineSchedule",
    "EventLoop",
    "ServerPool",
    "PipelineExecutor",
    "ExecutedSchedule",
    "RowRecord",
    "StageJitter",
    "AttentionExecutor",
    "AttentionExecution",
    "STARAccelerator",
    "ChipResources",
    "ModelSchedule",
    "RequestTiming",
    "LayerLatencyBreakdown",
]
