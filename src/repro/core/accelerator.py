"""The STAR accelerator: MatMul engine + RRAM softmax engines + pipeline.

The top-level model assembles the pieces the paper describes and produces
the quantities the evaluation section reports:

* end-to-end BERT-base inference latency, split into the attention pipeline
  (score GEMM -> softmax -> context GEMM, scheduled at vector granularity)
  and the remaining GEMMs (Q/K/V/output projections and the FFN);
* chip power: crossbar tiles, softmax engines and the shared system
  overheads (buffers, network, control) from
  :class:`repro.arch.system.SystemOverheadModel`;
* the Fig. 3 computing-efficiency report (GOPs/s/W).

Chip resources are factored into a first-class :class:`ChipResources`
object — the MatMul tile banks, the softmax-engine pool and the system
overheads a schedule *occupies*.  :class:`STARAccelerator` is the timing
model running on one such chip; the serving simulator
(:mod:`repro.serving`) replicates the same resources across a fleet and
charges request batches against them.  Beyond the single attention stage,
:meth:`STARAccelerator.executed_model_schedule` runs **every encoder
layer's** attention chain through the executed pipeline scheduler, and
:meth:`STARAccelerator.request_timing` condenses a whole batched inference
into the service time / energy quantities request-level serving needs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.arch.report import CostReport
from repro.arch.system import DEFAULT_SYSTEM_OVERHEAD, SystemOverheadModel
from repro.core.batch_cost import BatchCostModel, BatchGEMMExecutor, DEFAULT_BATCH_COST
from repro.core.config import STARConfig
from repro.core.matmul_engine import GEMMShape, MatMulEngine
from repro.core.pipeline import AttentionPipeline, StageTiming, attention_streams
from repro.core.scheduler import ExecutedSchedule, PipelineExecutor
from repro.core.softmax_engine import RRAMSoftmaxEngine
from repro.nn.bert import BertWorkload
from repro.utils.validation import require_finite, require_non_negative, require_positive_int

__all__ = [
    "ChipResources",
    "LayerLatencyBreakdown",
    "ModelSchedule",
    "PowerState",
    "RequestTiming",
    "STARAccelerator",
]

@dataclass(frozen=True)
class PowerState:
    """Deep-sleep power state of one chip: what sleeping saves, waking costs.

    RRAM conductances are non-volatile, so a powered-down STAR chip keeps
    its programmed weights — deep sleep gates the peripheral circuits
    (DACs, ADCs, sense amplifiers, clocking) without losing tile state,
    which is why ``sleep_power_fraction`` can sit far below the idle
    fraction while wake-up needs no reprogramming, only re-biasing.

    ``entry_latency_s`` is how long the chip takes to drain into the low
    power state after the decision; ``exit_latency_s`` is the power-grid /
    PLL ramp before the chip can serve again.  ``wake_energy_j`` is the
    energy of one wake burst; ``None`` derives it as half the exit latency
    at full active power (a linear ramp), evaluated by
    :meth:`ChipResources.wake_energy_j` at the chip's reference length.
    """

    sleep_power_fraction: float = 0.02
    entry_latency_s: float = 1e-3
    exit_latency_s: float = 5e-3
    wake_energy_j: float | None = None

    def __post_init__(self) -> None:
        require_non_negative(self.sleep_power_fraction, "sleep_power_fraction")
        if self.sleep_power_fraction > 1.0:
            raise ValueError(
                f"sleep_power_fraction must lie in [0, 1], got {self.sleep_power_fraction}"
            )
        for name in ("entry_latency_s", "exit_latency_s", "wake_energy_j"):
            value = getattr(self, name)
            if value is not None:
                require_finite(require_non_negative(value, name), name)


class ChipResources:
    """The compute resources of one STAR chip, as a first-class object.

    A schedule *occupies* these resources: the attention executor's
    head-streams are tile groups of :attr:`matmul_engine`, its softmax
    pool has :attr:`num_softmax_engines` discrete servers, and the chip's
    power/area include the shared :attr:`system_overhead` substrate.
    Factoring them out of :class:`STARAccelerator` lets the serving fleet
    provision N identical chips and lets an idle or softmax-only chip be
    costed without a full accelerator model around it.
    """

    def __init__(
        self,
        config: STARConfig | None = None,
        num_softmax_engines: int = 64,
        system_overhead: SystemOverheadModel = DEFAULT_SYSTEM_OVERHEAD,
        idle_power_fraction: float = 0.1,
        power_state: PowerState | None = None,
    ) -> None:
        require_positive_int(num_softmax_engines, "num_softmax_engines")
        require_non_negative(idle_power_fraction, "idle_power_fraction")
        if idle_power_fraction > 1.0:
            raise ValueError(
                f"idle_power_fraction must lie in [0, 1], got {idle_power_fraction}"
            )
        if (
            power_state is not None
            and power_state.sleep_power_fraction > idle_power_fraction
        ):
            raise ValueError(
                f"deep sleep must not draw more than idle: sleep fraction "
                f"{power_state.sleep_power_fraction} > idle fraction "
                f"{idle_power_fraction}"
            )
        self.config = config or STARConfig()
        self.matmul_engine = MatMulEngine(self.config.matmul)
        self.softmax_engine = RRAMSoftmaxEngine(self.config.softmax)
        self.num_softmax_engines = num_softmax_engines
        self.system_overhead = system_overhead
        self.idle_power_fraction = idle_power_fraction
        self.power_state = power_state

    @property
    def num_tiles(self) -> int:
        """Crossbar tiles of the MatMul engine."""
        return self.config.matmul.num_tiles

    def attention_streams(self, num_heads: int, batch_size: int) -> int:
        """Concurrent head-streams the tile budget supports for one workload."""
        return attention_streams(num_heads, batch_size, self.num_tiles)

    def executor(self, workload: BertWorkload, streams: int | None = None) -> PipelineExecutor:
        """A pipeline executor occupying this chip's resources.

        ``streams`` overrides the tile-budget allocation (the accelerator
        passes its batch-cost model's stream count so analytical and
        executed schedules agree on the parallelism they price).
        """
        if streams is None:
            streams = self.attention_streams(workload.config.num_heads, workload.batch_size)
        return PipelineExecutor(
            self.config.pipeline,
            streams=streams,
            softmax_engines=self.num_softmax_engines,
        )

    def power_w(self, seq_len: int = 128) -> float:
        """Average chip power while executing inference at ``seq_len``."""
        tiles = self.matmul_engine.peak_power_w()
        softmax = self.num_softmax_engines * self.softmax_engine.power_w(seq_len)
        overhead = self.system_overhead.total_power_w(self.num_tiles)
        return tiles + softmax + overhead

    def idle_power_w(self, seq_len: int = 128) -> float:
        """Leakage / standby power of the chip while no batch occupies it.

        Modelled as a fraction of the active power — peripheral bias
        currents, eDRAM refresh and clocking do not stop when the tiles
        do.  The serving report charges this over each chip's idle time so
        low-load energy-per-query figures stay honest.
        """
        return self.idle_power_fraction * self.power_w(seq_len)

    def sleep_power_w(self, seq_len: int = 128) -> float:
        """Residual power in deep sleep (idle power without a power state).

        A chip with no :class:`PowerState` cannot sleep deeper than idle,
        so parking it saves nothing beyond what idle already charges.
        """
        if self.power_state is None:
            return self.idle_power_w(seq_len)
        return self.power_state.sleep_power_fraction * self.power_w(seq_len)

    @property
    def sleep_entry_latency_s(self) -> float:
        """Drain time from idle into deep sleep (0 without a power state)."""
        return 0.0 if self.power_state is None else self.power_state.entry_latency_s

    @property
    def wake_latency_s(self) -> float:
        """Power-grid / PLL ramp before a sleeping chip serves again."""
        return 0.0 if self.power_state is None else self.power_state.exit_latency_s

    def wake_energy_j(self, seq_len: int = 128) -> float:
        """Energy of one wake burst (explicit, or the linear-ramp default)."""
        if self.power_state is None:
            return 0.0
        if self.power_state.wake_energy_j is not None:
            return self.power_state.wake_energy_j
        return 0.5 * self.power_state.exit_latency_s * self.power_w(seq_len)

    def area_mm2(self) -> float:
        """Total chip area."""
        tiles = self.matmul_engine.area_mm2()
        softmax = self.num_softmax_engines * self.softmax_engine.area_mm2()
        overhead = self.system_overhead.total_area_mm2(self.num_tiles)
        return tiles + softmax + overhead


@dataclass(frozen=True)
class LayerLatencyBreakdown:
    """Latency components of one encoder layer on the accelerator.

    ``programming_s`` is the one-time-per-batch weight-operand programming
    of the layer's GEMMs; it is zero under the default ``"resident"``
    weight policy and amortises across the batch under ``"streamed"``.
    """

    projection_s: float
    attention_pipeline_s: float
    ffn_s: float
    softmax_only_s: float
    programming_s: float = 0.0

    @property
    def total_s(self) -> float:
        """Total latency of the layer."""
        return self.programming_s + self.projection_s + self.attention_pipeline_s + self.ffn_s

    @property
    def softmax_share(self) -> float:
        """Share of the layer spent waiting on softmax (0 when fully hidden)."""
        return self.softmax_only_s / self.total_s if self.total_s > 0 else 0.0


@dataclass(frozen=True)
class ModelSchedule:
    """Whole-model executed timing: every encoder layer, not one scaled stage.

    Each layer's attention chain runs through the pipeline executor; the
    projection and FFN GEMMs run through the tile-bank GEMM executor —
    they are plain weight-stationary GEMMs with no cross-stage pipelining.
    """

    layers: tuple[LayerLatencyBreakdown, ...]
    attention_schedules: tuple[ExecutedSchedule, ...]

    @property
    def num_layers(self) -> int:
        """Encoder layers in the schedule."""
        return len(self.layers)

    @property
    def total_latency_s(self) -> float:
        """End-to-end model latency."""
        return sum(layer.total_s for layer in self.layers)

    def softmax_utilization(self) -> float:
        """Mean softmax-pool occupancy across the layers' executions."""
        schedules = self.attention_schedules
        return sum(s.utilization("softmax") for s in schedules) / len(schedules)


@dataclass(frozen=True)
class RequestTiming:
    """Service time and energy of one batched inference request.

    The quantity the request-level serving simulator charges a chip with:
    ``latency_s`` occupies the chip's resources for the whole batch and
    ``energy_j`` is the active energy of that occupancy.
    """

    batch_size: int
    seq_len: int
    latency_s: float
    energy_j: float


class STARAccelerator:
    """Architectural model of the full STAR accelerator.

    Latency is priced in closed form — the attention pipeline by the
    :class:`~repro.core.pipeline.AttentionPipeline` formulas, the GEMMs by
    the MatMul engine's streaming formulas — through
    :meth:`inference_latency_s`, :meth:`layer_latency_breakdown` and
    :meth:`request_timing`.  The executed schedule is a separate call:
    :meth:`executed_attention_schedule` runs one layer's attention rows
    through the :class:`~repro.core.scheduler.PipelineExecutor` with the
    chip's actual resources — ``attention_streams`` parallel tile groups
    for the GEMM stages and ``num_softmax_engines`` discrete softmax
    engines — and :meth:`executed_model_schedule` does so for the whole
    model.

    The chip's resources live in a :class:`ChipResources` object; pass one
    as ``resources`` to share or replicate a provisioned chip (the serving
    fleet does this), or let the constructor build one from ``config`` /
    ``num_softmax_engines`` / ``system_overhead``.  Beside ``resources``
    each of those may only restate the chip's own value.

    ``batch_cost`` selects the :class:`~repro.core.batch_cost.BatchCostModel`
    pricing a batched inference: the default keeps ``batch_size = 1``
    bit-identical to the pre-batching model while double-buffering rows of
    later requests; :meth:`BatchCostModel.streamed
    <repro.core.batch_cost.BatchCostModel.streamed>` additionally charges
    (and amortises) per-batch operand programming, and
    ``BatchCostModel(double_buffering=False)`` reproduces the old strictly
    linear pricing.
    """

    name = "STAR"

    def __init__(
        self,
        config: STARConfig | None = None,
        num_softmax_engines: int | None = None,
        system_overhead: SystemOverheadModel | None = None,
        resources: ChipResources | None = None,
        batch_cost: BatchCostModel | None = None,
    ) -> None:
        passed = {
            name: value
            for name, value in (
                ("config", config),
                ("num_softmax_engines", num_softmax_engines),
                ("system_overhead", system_overhead),
            )
            if value is not None
        }
        if resources is None:
            resources = ChipResources(**passed)
        for name, value in passed.items():
            # an explicit resources object IS the chip: a value passed beside
            # it must restate the chip's own (the engine count by value, the
            # configuration objects by identity), or it would be ignored
            own = getattr(resources, name)
            if (value != own) if name == "num_softmax_engines" else (value is not own):
                raise ValueError(
                    f"pass either {name} or resources, not conflicting both: "
                    f"got {name}={value!r}, resources has {own!r}"
                )
        self.resources = resources
        self.config = resources.config
        self.matmul_engine = resources.matmul_engine
        self.softmax_engine = resources.softmax_engine
        self.num_softmax_engines = resources.num_softmax_engines
        self.pipeline = AttentionPipeline(self.config.pipeline)
        self.system_overhead = resources.system_overhead
        self.batch_cost = batch_cost or DEFAULT_BATCH_COST

    # ------------------------------------------------------------------ #
    # latency
    # ------------------------------------------------------------------ #
    def _gemm_streaming_s(self, workload: BertWorkload, shape: GEMMShape) -> float:
        """Row-streaming latency of one per-request GEMM across the batch."""
        return self.matmul_engine.gemm_streaming_latency_s(
            shape, batch_size=workload.batch_size, cost_model=self.batch_cost
        )

    def _projection_latency_s(self, workload: BertWorkload) -> float:
        return 4 * self._gemm_streaming_s(workload, workload.projection_shape())

    def _ffn_latency_s(self, workload: BertWorkload) -> float:
        return self._gemm_streaming_s(workload, workload.ffn_up_shape()) + self._gemm_streaming_s(
            workload, workload.ffn_down_shape()
        )

    def _programming_latency_s(self, workload: BertWorkload) -> float:
        """One-time weight-operand programming of one layer's GEMMs.

        Zero under the ``"resident"`` weight policy; under ``"streamed"``
        each stationary operand is written once per dispatched batch and
        the cost amortises across the batch's requests.
        """
        if not self.batch_cost.charges_programming:
            return 0.0
        engine = self.matmul_engine
        return sum(
            engine.programming_latency_s(shape)
            for shape in workload.weight_operand_shapes_per_layer()
        )

    def _attention_streams(self, workload: BertWorkload) -> int:
        """Concurrent head-streams under the configured batch-cost model."""
        batch = workload.batch_size if self.batch_cost.inter_request_parallelism else 1
        return attention_streams(
            workload.config.num_heads, batch, self.config.matmul.num_tiles
        )

    def attention_stage_timing(self, workload: BertWorkload) -> StageTiming:
        """Per-row stage timings of the attention pipeline for one layer.

        The per-row GEMM latencies are divided by the number of concurrent
        head-streams the tile budget supports, and the softmax row latency
        by the number of parallel softmax engines: the timings describe the
        *aggregate* row intervals the pipeline model consumes.
        """
        native = self.native_attention_stage_timing(workload)
        streams = self._attention_streams(workload)
        return StageTiming(
            score_row_s=native.score_row_s / streams,
            softmax_row_s=native.softmax_row_s / self.num_softmax_engines,
            context_row_s=native.context_row_s / streams,
            num_rows=native.num_rows,
        )

    def native_attention_stage_timing(self, workload: BertWorkload) -> StageTiming:
        """Per-row stage timings as one server of each stage sees them.

        Unlike :meth:`attention_stage_timing` nothing is divided by the
        stream or engine counts — these are the service times of one tile
        group / one softmax engine, which is what the pipeline executor
        consumes (it models the parallelism with discrete servers instead
        of rate scaling).
        """
        cfg = workload.config
        seq_len = workload.seq_len
        return StageTiming(
            score_row_s=self.matmul_engine.row_latency_s(workload.attention_score_row_shape()),
            softmax_row_s=self.softmax_engine.row_latency_s(seq_len),
            context_row_s=self.matmul_engine.row_latency_s(workload.attention_context_row_shape()),
            num_rows=workload.batch_size * cfg.num_heads * seq_len,
        )

    def attention_executor(self, workload: BertWorkload) -> PipelineExecutor:
        """The pipeline executor provisioned for this workload."""
        return self.resources.executor(workload, streams=self._attention_streams(workload))

    def executed_attention_schedule(
        self, workload: BertWorkload, granularity: str | None = None
    ) -> ExecutedSchedule:
        """Run the workload's attention rows through the pipeline executor.

        ``granularity`` overrides the configured pipeline granularity for
        this one execution (``None`` keeps the configured one).
        """
        return self.attention_executor(workload).execute(
            self.native_attention_stage_timing(workload), granularity
        )

    def layer_latency_breakdown(self, workload: BertWorkload) -> LayerLatencyBreakdown:
        """Latency components of one encoder layer."""
        timing = self.attention_stage_timing(workload)
        return LayerLatencyBreakdown(
            projection_s=self._projection_latency_s(workload),
            attention_pipeline_s=self.pipeline.latency(timing).total_latency_s,
            ffn_s=self._ffn_latency_s(workload),
            softmax_only_s=timing.softmax_row_s * timing.num_rows,
            programming_s=self._programming_latency_s(workload),
        )

    def executed_gemm_schedule(self, workload: BertWorkload, shape: GEMMShape):
        """Executed schedule of one per-request GEMM across the batch.

        Every tile-level VMM task is dispatched to the first free tile of
        the bank (:class:`~repro.core.batch_cost.BatchGEMMExecutor`, which
        moves tiles that free together as one lockstep block, so the cost
        is O(waves)); the measured makespan cross-validates
        :meth:`~repro.core.matmul_engine.MatMulEngine.gemm_streaming_latency_s`
        — exact when the task count divides the tile parallelism, within a
        wave otherwise.
        """
        executor = BatchGEMMExecutor(self.matmul_engine, self.batch_cost)
        return executor.execute(shape, batch_size=workload.batch_size)

    def executed_model_schedule(self, workload: BertWorkload) -> ModelSchedule:
        """Execute the attention chain of **every** encoder layer.

        This replaces the single analytically-scaled attention stage with
        an executed pipeline schedule per layer.  The layers are identical,
        so one execution serves all of them (the totals are bit-identical
        to ``num_layers`` independent runs).

        The projection and FFN GEMMs are executed too: their batched row
        streams run through the event-driven
        :class:`~repro.core.batch_cost.BatchGEMMExecutor` over the tile
        bank, so the whole-model batch price is *measured* rather than
        taken from the closed forms (at batch 1 the two coincide exactly —
        equal task durations over the bank complete in full waves).
        """
        timing = self.attention_stage_timing(workload)
        schedule = self.executed_attention_schedule(workload)

        def gemm_s(shape: GEMMShape) -> float:
            return self.executed_gemm_schedule(workload, shape).streaming_makespan_s

        layer = LayerLatencyBreakdown(
            projection_s=4 * gemm_s(workload.projection_shape()),
            attention_pipeline_s=schedule.total_latency_s,
            ffn_s=gemm_s(workload.ffn_up_shape()) + gemm_s(workload.ffn_down_shape()),
            softmax_only_s=timing.softmax_row_s * timing.num_rows,
            programming_s=self._programming_latency_s(workload),
        )
        num_layers = workload.config.num_layers
        return ModelSchedule(
            layers=(layer,) * num_layers, attention_schedules=(schedule,) * num_layers
        )

    def inference_latency_s(self, workload: BertWorkload) -> float:
        """End-to-end latency of one BERT inference."""
        layer = self.layer_latency_breakdown(workload)
        return workload.config.num_layers * layer.total_s

    def _energy_reference_latency_s(self, workload: BertWorkload) -> float:
        """Serialized-equivalent active time the chip's converters run.

        Double-buffering shortens a batch's wall clock by hiding input
        staging under the shared-ADC readout, but it removes no DAC/ADC
        conversions and no cell reads — so energy is charged at the
        serialized streaming rate (the same closed forms with the
        double-buffering lever off), keeping the engine-level invariant
        that only operand programming amortises across a batch.  At batch
        1 the two rates coincide and energy stays ``power * latency``
        bit-identically.
        """
        model = self.batch_cost
        if model.double_buffering:
            model = replace(model, double_buffering=False)
        engine = self.matmul_engine
        batch = workload.batch_size
        projection = 4 * engine.gemm_streaming_latency_s(
            workload.projection_shape(), batch_size=batch, cost_model=model
        )
        ffn = engine.gemm_streaming_latency_s(
            workload.ffn_up_shape(), batch_size=batch, cost_model=model
        ) + engine.gemm_streaming_latency_s(
            workload.ffn_down_shape(), batch_size=batch, cost_model=model
        )
        attention = self.pipeline.latency(self.attention_stage_timing(workload)).total_latency_s
        programming = self._programming_latency_s(workload)
        return workload.config.num_layers * (programming + projection + attention + ffn)

    def request_timing(self, workload: BertWorkload) -> RequestTiming:
        """Service time and active energy of one batched inference request.

        The serving simulator charges a chip with exactly this quantity
        when it dispatches a batch: the chip is occupied for ``latency_s``,
        while ``energy_j`` is ``power_w`` over the *serialized-equivalent*
        active time (:meth:`_energy_reference_latency_s`) — batching
        amortises the one-time programming energy but never the per-row
        conversion energy that double-buffering merely overlaps.
        """
        latency = self.inference_latency_s(workload)
        energy = self.power_w(workload.seq_len) * self._energy_reference_latency_s(workload)
        return RequestTiming(
            batch_size=workload.batch_size,
            seq_len=workload.seq_len,
            latency_s=latency,
            energy_j=energy,
        )

    # ------------------------------------------------------------------ #
    # power and area
    # ------------------------------------------------------------------ #
    def power_w(self, seq_len: int = 128) -> float:
        """Average chip power while executing BERT-base inference."""
        return self.resources.power_w(seq_len)

    def area_mm2(self) -> float:
        """Total chip area."""
        return self.resources.area_mm2()

    # ------------------------------------------------------------------ #
    # reports
    # ------------------------------------------------------------------ #
    def cost_report(self, workload: BertWorkload) -> CostReport:
        """Fig. 3 computing-efficiency report for one BERT workload."""
        latency = self.inference_latency_s(workload)
        return CostReport(
            name=self.name,
            area_mm2=self.area_mm2(),
            power_w=self.power_w(workload.seq_len),
            latency_s=latency,
            operations=float(workload.total_ops()),
        )

    def computing_efficiency_gops_per_watt(self, workload: BertWorkload) -> float:
        """The headline metric of Fig. 3."""
        return self.cost_report(workload).computing_efficiency_gops_per_watt
