"""Batch-aware cost accounting for the MatMul engine's tile bank.

Up to now every layer of the stack priced a batch as
``batch_size x single_request``: the analytical GEMM formulas took an
``m = batch * seq_len`` shape and scaled linearly, so the serving
simulator's :class:`~repro.serving.batcher.DynamicBatcher` amortised only
dispatch overhead.  The weight-stationary RRAM design the paper builds on
has three real batching levers, and this module makes them first-class
pricing dimensions:

* **Operand-programming reuse** — a stationary operand is written into the
  tile bank *once per dispatched batch* and every request's rows stream
  through the same cells.  Under the :attr:`~BatchCostModel.weight_policy`
  ``"streamed"`` (the tile bank is far too small to hold all of BERT-base,
  so operands are written on demand, PipeLayer-style time multiplexing)
  this one-time programming cost amortises across the batch — the PIM
  analogue of a GPU amortising weight reads.  ``"resident"`` keeps the
  paper's idealisation that weights are programmed at model-load time and
  never charged per inference.
* **Activation-buffer double-buffering** — while a tile's shared ADCs read
  out row ``i``, the wordline DACs already drive row ``i + 1`` from the
  second buffer bank.  Rows of *other* requests in the batch are always
  independent of the row in flight, so they stream at the overlapped cycle
  (:meth:`~repro.rram.crossbar.AnalogCrossbar.overlapped_vmm_latency_s`);
  the first request's rows are conservatively charged the serialized cycle
  (its rows interleave with dependent attention stages), which keeps
  ``batch_size = 1`` pricing bit-identical to the pre-batching model.
* **Inter-request tile parallelism** — spare tiles in the bank hold other
  requests' attention operands, so concurrent head-streams grow with the
  batch until the tile budget (``ChipResources.num_tiles``) caps them.

All three levers reduce *latency* only: energy is conversions and cell
accesses, which overlap does not remove, so batch energy never decreases
when the batch grows, and amortised programming energy is exactly one
:meth:`~repro.core.matmul_engine.MatMulEngine.programming_energy_j` per
operand per batch.

:class:`BatchGEMMExecutor` executes the same batched GEMM as a discrete-
event schedule — every tile-level VMM task goes to the first tile that
frees up — and cross-validates the closed forms the same way the pipeline
executor validates the batch-1 attention formulas: exact when the task
count divides the tile count, within a wave otherwise.  Tiles that free
together move in lockstep, so the schedule is simulated one block of such
tiles at a time and costs O(waves), not O(tile tasks).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.utils.validation import require_positive_int

if TYPE_CHECKING:  # imported lazily at runtime to avoid an import cycle
    from repro.core.matmul_engine import GEMMShape, MatMulEngine

__all__ = [
    "WEIGHT_POLICIES",
    "BatchCostModel",
    "DEFAULT_BATCH_COST",
    "BatchGEMMCost",
    "ExecutedGEMMSchedule",
    "BatchGEMMExecutor",
]

#: Valid values of :attr:`BatchCostModel.weight_policy`.
WEIGHT_POLICIES = ("resident", "streamed")


@dataclass(frozen=True)
class BatchCostModel:
    """Which batching levers the cost formulas apply.

    Attributes
    ----------
    weight_policy:
        ``"resident"`` — stationary weights live in the tiles permanently
        (programmed at model load, never charged per batch): the paper's
        idealisation, and the pre-batching behaviour.  ``"streamed"`` —
        the bank is time-multiplexed, so each GEMM's operand is programmed
        once per dispatched batch and the write cost amortises over the
        batch's requests.
    double_buffering:
        Overlap the input staging (DAC drive + settle + S&H) of one row
        with the ADC readout of the previous row for rows beyond the first
        request's.  Latency-only; never changes ``batch_size = 1``.
    inter_request_parallelism:
        Let concurrent attention head-streams grow with the batch (spare
        tiles hold other requests' ``K^T`` / ``V`` operands), capped by the
        tile budget.  Disabled, streams stay pinned at their batch-1
        allocation — the strictly serialized baseline.
    """

    weight_policy: str = "resident"
    double_buffering: bool = True
    inter_request_parallelism: bool = True

    def __post_init__(self) -> None:
        if self.weight_policy not in WEIGHT_POLICIES:
            raise ValueError(
                f"weight_policy must be one of {WEIGHT_POLICIES}, "
                f"got {self.weight_policy!r}"
            )

    @property
    def charges_programming(self) -> bool:
        """Whether stationary-operand programming is charged per batch."""
        return self.weight_policy == "streamed"

    @classmethod
    def streamed(cls) -> "BatchCostModel":
        """The honest serving configuration: every batching lever on."""
        return cls(
            weight_policy="streamed",
            double_buffering=True,
            inter_request_parallelism=True,
        )

    def maintenance_reprogram_latency_s(
        self, engine: "MatMulEngine", shapes: Sequence["GEMMShape"]
    ) -> float:
        """Latency of rewriting every stationary operand in ``shapes``.

        A chip repair (a crashed chip, stuck/drifted devices remapped) must
        rewrite its tile bank's conductance state from scratch, so — unlike
        per-batch pricing — the programming cost is charged regardless of
        :attr:`weight_policy`: even ``"resident"`` weights are gone after a
        failure.  This is what makes fault repair a physically grounded
        maintenance event rather than a magic downtime constant.
        """
        return sum(engine.programming_latency_s(shape) for shape in shapes)

    def wake_refresh_latency_s(self, engine: "MatMulEngine") -> float:
        """Peripheral re-bias after deep power-down — *not* a reprogram.

        RRAM conductances are non-volatile, so a woken chip keeps its tile
        bank's weights (the whole point of parking RRAM chips instead of
        DRAM-backed ones); what must settle before the first VMM is the
        analog periphery — DAC/ADC bias points and sense-amp references —
        which every tile refreshes in parallel with one dummy VMM cycle.
        Contrast :meth:`maintenance_reprogram_latency_s`, the full rewrite
        a *failed* chip pays because its conductance state is suspect.
        """
        return engine.tile_vmm_latency_s()

    def wake_refresh_energy_j(self, engine: "MatMulEngine") -> float:
        """Energy of the same re-bias: the whole bank's dummy VMM cycle."""
        return engine.config.num_tiles * engine.tile_vmm_energy_j()


#: Default pricing: batch-1 bit-identical to the pre-batching model, with
#: the latency-only levers active for larger batches.
DEFAULT_BATCH_COST = BatchCostModel()


@dataclass(frozen=True)
class BatchGEMMCost:
    """Price of one batched GEMM, split into one-time and per-row parts.

    ``shape`` is the *per-request* GEMM; the batch streams
    ``batch_size * shape.m`` activation rows through one programmed
    operand.  ``single_latency_s`` / ``single_energy_j`` are the same
    GEMM's batch-1 cost under the same :class:`BatchCostModel`, so the
    amortisation ratios compare against an honest linear baseline.
    """

    shape: "GEMMShape"
    batch_size: int
    programming_latency_s: float
    programming_energy_j: float
    streaming_latency_s: float
    streaming_energy_j: float
    single_latency_s: float
    single_energy_j: float

    @property
    def latency_s(self) -> float:
        """Total service latency of the batched GEMM."""
        return self.programming_latency_s + self.streaming_latency_s

    @property
    def energy_j(self) -> float:
        """Total energy of the batched GEMM."""
        return self.programming_energy_j + self.streaming_energy_j

    @property
    def linear_latency_s(self) -> float:
        """What the batch would cost if priced as ``batch x single_request``."""
        return self.batch_size * self.single_latency_s

    @property
    def amortisation(self) -> float:
        """Batch latency over the linear price (1.0 = no batching benefit)."""
        linear = self.linear_latency_s
        return self.latency_s / linear if linear > 0 else 1.0


@dataclass(frozen=True)
class ExecutedGEMMSchedule:
    """Result of event-driven execution of one batched GEMM.

    The measured counterpart of :class:`BatchGEMMCost`'s latency: the
    streaming makespan comes from simulated tile-task completions, with the
    serial operand programming (when charged) as a deterministic prologue.
    """

    shape: "GEMMShape"
    batch_size: int
    num_tiles: int
    num_tasks: int
    programming_latency_s: float
    streaming_makespan_s: float
    busy_s: float

    @property
    def total_latency_s(self) -> float:
        """Programming prologue plus the simulated streaming makespan."""
        return self.programming_latency_s + self.streaming_makespan_s

    @property
    def utilization(self) -> float:
        """Tile busy fraction over the streaming makespan."""
        span = self.num_tiles * self.streaming_makespan_s
        return self.busy_s / span if span > 0 else 0.0


class BatchGEMMExecutor:
    """Event-driven executor of one batched GEMM over the tile bank.

    Each of the ``tiles_for(shape) * m * batch`` tile-level VMMs is an
    independent task (partial sums are buffered, so the tasks of one row
    need not be simultaneous); tasks are dispatched FIFO in request order
    to whichever tile frees first, ties going to the tile that was queued
    first — the shared-pool FIFO discipline of the attention executor and
    the serving simulator.  Under ``double_buffering`` the first request's
    tasks are served at the serialized VMM latency and later requests'
    tasks at the overlapped latency, mirroring the closed form's split.

    Tiles that free at the same instant take consecutive tasks, so they
    are simulated as one lockstep block: one heap entry per block, which
    hands out a whole wave of tasks per pop.  At most two blocks are ever
    live (the wave that crosses from the first request into the later ones
    splits into a full-latency and an overlapped block), so a GEMM costs
    O(waves) heap operations, and the schedule is exactly that of
    dispatching every task on its own.
    """

    def __init__(
        self,
        engine: "MatMulEngine",
        cost_model: BatchCostModel | None = None,
    ) -> None:
        self.engine = engine
        self.cost_model = cost_model or DEFAULT_BATCH_COST

    def execute(
        self,
        shape: "GEMMShape",
        batch_size: int = 1,
        tiles_available: int | None = None,
    ) -> ExecutedGEMMSchedule:
        """Simulate the batched GEMM and report its measured schedule."""
        require_positive_int(batch_size, "batch_size")
        engine = self.engine
        model = self.cost_model
        parallel = engine.gemm_parallel_tiles(shape, tiles_available)
        tasks_per_request = engine.gemm_tile_vmms(shape)
        num_tasks = tasks_per_request * batch_size

        full = engine.tile_vmm_latency_s()
        overlapped = (
            engine.tile_vmm_overlapped_latency_s() if model.double_buffering else full
        )
        programming = (
            engine.programming_latency_s(shape) if model.charges_programming else 0.0
        )

        # a block is (end, seq, tiles, full_served, overlapped_served): its
        # tiles free at ``end`` having served the same task counts, and
        # ``seq`` orders equal-time blocks by push order, as a tile-level
        # event heap would.  Tiles never starve while tasks remain (the
        # whole batch is queued at t = 0), so each end is an exact product
        # sum of the served counts — no cumulative floating-point drift,
        # and the uniform batch-1 case lands bit-identically on the
        # closed-form ``waves * tile_vmm_latency`` arithmetic
        blocks = [(0.0, 0, parallel, 0, 0)]
        seq = 1
        dispatched = 0
        makespan = 0.0
        while dispatched < num_tasks:
            _, _, tiles, full_served, overlapped_served = heapq.heappop(blocks)
            take = min(tiles, num_tasks - dispatched)
            # the first request's rows interleave with dependent stages and
            # stream serialized; later requests' rows are double-buffered.
            # The full sub-block's tiles pop first, so they are pushed
            # first; tiles left without a task drop out
            first = min(take, max(tasks_per_request - dispatched, 0))
            dispatched += take
            for count, f, o in (
                (first, full_served + 1, overlapped_served),
                (take - first, full_served, overlapped_served + 1),
            ):
                if count:
                    end = f * full + o * overlapped
                    makespan = max(makespan, end)
                    heapq.heappush(blocks, (end, seq, count, f, o))
                    seq += 1

        return ExecutedGEMMSchedule(
            shape=shape,
            batch_size=batch_size,
            num_tiles=parallel,
            num_tasks=num_tasks,
            programming_latency_s=programming,
            streaming_makespan_s=makespan,
            # every task is served once: the first request's at full latency
            busy_s=tasks_per_request * full + (num_tasks - tasks_per_request) * overlapped,
        )
