"""Executor of the vector-grained attention pipeline.

:mod:`repro.core.pipeline` *predicts* the latency of the
``score GEMM -> softmax -> context GEMM`` chain with closed-form formulas;
this module *executes* the schedule.  Rows flow through a discrete
simulation of the three stages, each backed by real resources:

* the **score** and **context** stages are served by per-head-stream tile
  groups of the MatMul engine (one server per concurrent head-stream, see
  :func:`repro.core.pipeline.attention_streams`) — a row is bound to its
  stream's tiles and streams proceed in parallel;
* the **softmax** stage is served by a shared pool of RRAM softmax
  engines; a finished score row enters one FIFO queue and is dispatched to
  the first engine that frees up (engines may have different speeds — the
  unbalanced-pool scenario).

Every stage is a FIFO queue, so the schedule is computed one stage at a
time rather than by a global event heap: a stage's start times follow
from its arrivals by the Kiefer–Wolfowitz workload recursion (a row
starts at the later of its arrival and the time its server frees), and
its ends plus the handoff are the next stage's arrivals.  Ties resolve as
in :class:`~repro.core.events.EventLoop` — a server freeing at an instant
is idle for a row arriving at that instant, and simultaneous arrivals
keep the order their upstream services started in — so the result is
bit-identical to an event loop over ``ARRIVE``/``FREE`` events
(``tests/core/test_pipeline_oracle.py`` keeps that loop as the oracle).

Executed-vs-analytical semantics
--------------------------------

Both models charge the same per-row stage service times and the same
``stage_handoff_s`` forwarding overhead.  In the executor a server is
occupied for ``service + handoff`` per row (it forwards its result before
accepting the next row) and the row reaches the next stage's queue at
``service_end + handoff``; a row *completes* when its context-GEMM service
ends.  With one server per stage and no jitter this reproduces
:meth:`~repro.core.pipeline.AttentionPipeline.vector_grained_latency`
**exactly** (``fill + (n - 1) * (bottleneck + handoff)``), and the
operand-grained executor — every stage drains all rows before the next
starts, one handoff per stage boundary — reproduces
:meth:`~repro.core.pipeline.AttentionPipeline.operand_grained_latency`
exactly.  With engine pools the analytical model approximates a ``k``-wide
pool as a single ``k``-times-faster server; the executed schedule keeps the
discrete servers, so the two agree only up to pipeline-fill and
handoff-amortisation terms — the cross-validation suite
(``tests/core/test_scheduler_crossval.py``) pins the tolerance.

What the executor adds over the formulas is everything they cannot
express: per-row stage jitter, unbalanced engine pools, multi-sequence
tile contention, queue depths and per-engine occupancy — and, through
:class:`AttentionExecutor`, the ability to push **real tensors** through
the schedule: actual score rows produced by
:class:`~repro.core.matmul_engine.MatMulEngine` tile banks, softmaxed by a
pool of :class:`~repro.core.softmax_engine.RRAMSoftmaxEngine` instances
and contracted against ``V``, with every per-row service time *measured*
from the access-statistics ledgers the engines accumulate rather than
assumed.
"""

from __future__ import annotations

import heapq
import numbers
from dataclasses import dataclass, fields, replace
from functools import cached_property
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.core.access_stats import AccessStats
from repro.core.config import PipelineConfig
from repro.core.events import StageJitter
from repro.core.pipeline import StageTiming, attention_streams
from repro.utils.validation import (
    require_finite,
    require_finite_array,
    require_positive,
    require_positive_int,
)

if TYPE_CHECKING:
    from repro.core.matmul_engine import MatMulEngine
    from repro.core.softmax_engine import RRAMSoftmaxEngine

__all__ = [
    "STAGES",
    "StageJitter",
    "RowRecord",
    "ExecutedSchedule",
    "PipelineExecutor",
    "AttentionExecution",
    "AttentionExecutor",
]

#: The three pipeline stages, in dataflow order.
STAGES = ("score", "softmax", "context")


@dataclass(frozen=True)
class RowRecord:
    """Timestamps of one row's trip through the executed pipeline."""

    row: int
    stream: int
    engine: int
    score_start_s: float
    score_end_s: float
    softmax_start_s: float
    softmax_end_s: float
    context_start_s: float
    context_end_s: float

    @property
    def completion_s(self) -> float:
        """When the row's context-GEMM service ended (pipeline exit)."""
        return self.context_end_s


@dataclass(frozen=True)
class ExecutedSchedule:
    """Result of executing one attention computation through the pipeline.

    The measured counterpart of the analytical
    :class:`~repro.core.pipeline.PipelineSchedule`: total latency and
    steady-state interval come from the simulated row timestamps, and the
    execution additionally exposes per-stage busy times, peak queue depths
    and the per-engine row assignment the formulas cannot see.

    Rows are stored as arrays: ``starts`` and ``ends`` are
    ``(num_rows, 3)`` service timestamps with columns in :data:`STAGES`
    order, ``engine_of`` and ``stream_of`` give each row's softmax engine
    and head-stream.  :attr:`records` views the same data one
    :class:`RowRecord` per row, built on first access.
    """

    granularity: str
    total_latency_s: float
    steady_state_interval_s: float
    num_streams: int
    num_softmax_engines: int
    starts: np.ndarray
    ends: np.ndarray
    engine_of: np.ndarray
    stream_of: np.ndarray
    stage_busy_s: dict[str, float]
    queue_peaks: dict[str, int]
    engine_rows: tuple[int, ...]

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return all(
            np.array_equal(mine, theirs) if isinstance(mine, np.ndarray) else mine == theirs
            for mine, theirs in (
                (getattr(self, f.name), getattr(other, f.name)) for f in fields(self)
            )
        )

    @cached_property
    def records(self) -> tuple[RowRecord, ...]:
        """Per-row timestamps, one :class:`RowRecord` per row in row order."""
        times = np.stack((self.starts, self.ends), axis=2).reshape(-1, 2 * len(STAGES))
        return tuple(
            RowRecord(row, stream, engine, *stamps)
            for row, (stream, engine, stamps) in enumerate(
                zip(self.stream_of.tolist(), self.engine_of.tolist(), times.tolist())
            )
        )

    @property
    def num_rows(self) -> int:
        """Rows that completed the pipeline."""
        return self.stream_of.size

    def utilization(self, stage: str) -> float:
        """Busy fraction of the stage's servers over the whole execution."""
        if stage not in STAGES:
            raise ValueError(f"unknown stage {stage!r}; expected one of {STAGES}")
        servers = self.num_softmax_engines if stage == "softmax" else self.num_streams
        if self.total_latency_s == 0.0:
            return 0.0
        return self.stage_busy_s[stage] / (servers * self.total_latency_s)


def _steady_interval(completions: np.ndarray, total: float) -> float:
    """Average inter-completion gap over the middle half of the rows.

    The first and last quarters are discarded as pipeline fill and drain;
    with fewer than eight rows there is no steady state to speak of and the
    mean completion rate is reported instead.
    """
    n = completions.size
    ordered = np.sort(completions)
    if n < 8:
        return total / n
    lo, hi = n // 4, n - n // 4 - 1
    return float((ordered[hi] - ordered[lo]) / (hi - lo))


def _keyed_fifo(
    order: np.ndarray,
    arrive: np.ndarray,
    service: np.ndarray,
    stream_of: np.ndarray,
    streams: int,
    handoff: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """One FIFO server per head-stream: start and end of every row.

    ``order`` lists the rows in the order their arrivals are processed and
    ``arrive`` gives each row's arrival time.  A stream serves its rows in
    that order, each starting at ``max(arrival, predecessor's free time)``
    (the Kiefer–Wolfowitz recursion for one server).  The streams are
    independent, but the order their services start in ranks the next
    stage's simultaneous arrivals, so their next starts merge in a heap
    keyed ``(start, kind, trigger rank)`` with the tie rules of
    :class:`~repro.core.events.EventLoop`: a row that had to queue starts
    at its predecessor's FREE (kind 0, ranked by the predecessor's start),
    any other row at its own ARRIVE (kind 1, ranked by arrival).

    Returns the start and end times per row, the rows in start order and
    the busy time summed in that order.
    """
    n = order.size
    arrive_r = arrive[order].tolist()
    service_r = service[order].tolist()
    lanes: list[list[int]] = [[] for _ in range(streams)]
    for rank, stream in enumerate(stream_of[order].tolist()):
        lanes[stream].append(rank)
    heap = []
    for lane in lanes:
        if lane:
            queue = iter(lane)
            first = next(queue)
            heap.append((arrive_r[first], 1, first, first, queue))
    heapq.heapify(heap)

    start_r = [0.0] * n
    end_r = [0.0] * n
    started: list[int] = []
    busy = 0.0
    while heap:
        # keys are unique (ranks never repeat within a kind), so the rank
        # and lane iterator riding in each entry are never compared
        time, _, _, rank, queue = heap[0]
        finish = time + service_r[rank]
        start_r[rank] = time
        end_r[rank] = finish
        busy += service_r[rank] + handoff
        successor = next(queue, None)
        if successor is None:
            heapq.heappop(heap)
        else:
            free = finish + handoff
            arrival = arrive_r[successor]
            if arrival < free:
                entry = (free, 0, len(started), successor, queue)
            else:
                entry = (arrival, 1, successor, successor, queue)
            heapq.heapreplace(heap, entry)
        started.append(rank)

    start = np.empty(n)
    end = np.empty(n)
    start[order] = start_r
    end[order] = end_r
    return start, end, order[started], busy


def _pool_fifo(
    order: np.ndarray,
    arrive: np.ndarray,
    service: np.ndarray,
    speedups: Sequence[float],
    handoff: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float]:
    """A shared FIFO pool of engines: start, end and engine of every row.

    Rows start in arrival order (``order``), so the start order is the
    arrival order.  A row takes the lowest-index engine idle at its
    arrival; when none is, it waits for the engine with the smallest
    ``(free time, start rank)`` — the order the event loop pops their
    FREE events in.  A row's service is its nominal time divided by the
    engine's speedup.

    Returns the start and end times and the engine per row, the rows in
    start order and the busy time summed in that order.
    """
    n = order.size
    arrive_r = arrive[order].tolist()
    service_r = service[order].tolist()
    start_r = [0.0] * n
    end_r = [0.0] * n
    engine_r = [0] * n
    idle = list(range(len(speedups)))  # sorted, hence already a heap
    running: list[tuple[float, int, int]] = []  # (free time, start rank, engine)
    busy = 0.0
    for rank in range(n):
        time = arrive_r[rank]
        while running and running[0][0] <= time:
            heapq.heappush(idle, heapq.heappop(running)[2])
        if idle:
            engine = heapq.heappop(idle)
        else:
            time, _, engine = heapq.heappop(running)
        duration = service_r[rank] / speedups[engine]
        finish = time + duration
        start_r[rank] = time
        end_r[rank] = finish
        engine_r[rank] = engine
        busy += duration + handoff
        heapq.heappush(running, (finish + handoff, rank, engine))

    start = np.empty(n)
    end = np.empty(n)
    engine_of = np.empty(n, dtype=np.int64)
    start[order] = start_r
    end[order] = end_r
    engine_of[order] = engine_r
    return start, end, order, engine_of, busy


def _queue_peak(order: np.ndarray, arrive: np.ndarray, start: np.ndarray) -> int:
    """Most rows ever waiting in one stage's queues at once.

    A row waits iff it starts after it arrives.  Rows join the queues in
    ``order``; at equal times a departure precedes an arrival, so the depth
    just after the ``k``-th waiting row joins is ``k`` minus the waiting
    rows that started by its arrival.
    """
    waiting = order[start[order] > arrive[order]]
    if waiting.size == 0:
        return 0
    left = np.searchsorted(np.sort(start[waiting]), arrive[waiting], side="right")
    return int((np.arange(1, waiting.size + 1) - left).max())


class PipelineExecutor:
    """Executor of the three-stage attention pipeline, one stage at a time.

    Parameters
    ----------
    config:
        Granularity (``"vector"`` / ``"operand"``) and the per-forward
        ``stage_handoff_s``; defaults to :class:`~repro.core.config.PipelineConfig`.
    streams:
        Concurrent head-streams — parallel servers of the score and context
        stages (each stream owns its ``K^T`` / ``V`` tiles).  Rows are
        distributed round-robin across streams unless an explicit mapping is
        passed to :meth:`execute_service_times`.
    softmax_engines:
        Size of the shared softmax-engine pool.
    softmax_speedups:
        Optional per-engine speed factors (service time is divided by the
        factor), each finite and positive; defaults to a homogeneous pool
        of 1.0.
    jitter:
        Optional :class:`StageJitter` applied to the per-row service times
        drawn from a :class:`~repro.core.pipeline.StageTiming`.
    """

    def __init__(
        self,
        config: PipelineConfig | None = None,
        *,
        streams: int = 1,
        softmax_engines: int = 1,
        softmax_speedups: Sequence[float] | None = None,
        jitter: StageJitter | None = None,
    ) -> None:
        self.config = config or PipelineConfig()
        require_positive_int(streams, "streams")
        require_positive_int(softmax_engines, "softmax_engines")
        self.streams = streams
        self.softmax_engines = softmax_engines
        if softmax_speedups is None:
            softmax_speedups = (1.0,) * softmax_engines
        self.softmax_speedups = tuple(float(s) for s in softmax_speedups)
        if len(self.softmax_speedups) != softmax_engines:
            raise ValueError(
                f"got {len(self.softmax_speedups)} softmax_speedups for "
                f"{softmax_engines} engines"
            )
        for engine, speed in enumerate(self.softmax_speedups):
            name = f"softmax_speedups[{engine}]"
            require_finite(require_positive(speed, name), name)
        self.jitter = jitter

    # ------------------------------------------------------------------ #
    # StageTiming entry point
    # ------------------------------------------------------------------ #
    def _service_times(self, timing: StageTiming) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        n = timing.num_rows
        factors = (
            self.jitter.factors(n) if self.jitter is not None else np.ones((n, len(STAGES)))
        )
        return (
            timing.score_row_s * factors[:, 0],
            timing.softmax_row_s * factors[:, 1],
            timing.context_row_s * factors[:, 2],
        )

    def execute(self, timing: StageTiming, granularity: str | None = None) -> ExecutedSchedule:
        """Execute ``timing.num_rows`` rows of identical nominal service times.

        ``granularity`` — ``"vector"`` (STAR's schedule: every finished
        score row immediately moves on) or ``"operand"`` (prior work's
        schedule: stage barriers between score, softmax and context) —
        overrides the configured one for this execution.
        """
        score, softmax, context = self._service_times(timing)
        return self.execute_service_times(score, softmax, context, granularity=granularity)

    # ------------------------------------------------------------------ #
    # service-time entry point (measured or synthetic)
    # ------------------------------------------------------------------ #
    def execute_service_times(
        self,
        score_s: np.ndarray,
        softmax_s: np.ndarray,
        context_s: np.ndarray,
        *,
        granularity: str | None = None,
        stream_of: np.ndarray | None = None,
    ) -> ExecutedSchedule:
        """Execute rows whose per-row stage service times are given explicitly.

        This is the entry point :class:`AttentionExecutor` uses with
        *measured* service times; ``granularity`` overrides the configured
        one and ``stream_of`` optionally pins each row to a head-stream
        (default round-robin).
        """
        score_s = np.asarray(score_s, dtype=np.float64)
        softmax_s = np.asarray(softmax_s, dtype=np.float64)
        context_s = np.asarray(context_s, dtype=np.float64)
        n = score_s.size
        if n == 0:
            raise ValueError("cannot execute an empty schedule")
        if softmax_s.size != n or context_s.size != n:
            raise ValueError(
                f"stage service arrays disagree on row count: "
                f"{score_s.size}, {softmax_s.size}, {context_s.size}"
            )
        for stage, service in zip(STAGES, (score_s, softmax_s, context_s)):
            require_finite_array(service, f"{stage} service times")
        if min(score_s.min(), softmax_s.min(), context_s.min()) < 0:
            raise ValueError("service times must be non-negative")
        if stream_of is None:
            stream_of = np.arange(n) % self.streams
        else:
            stream_of = np.asarray(stream_of)
            if stream_of.size != n:
                raise ValueError("stream_of must give one stream per row")
            if stream_of.dtype.kind not in "iu":
                values = stream_of.astype(np.float64)
                integral = np.isfinite(values) & (values == np.floor(values))
                if not integral.all():
                    row = int(np.argmin(integral))
                    raise ValueError(
                        "stream_of must hold integer stream indices, "
                        f"got {stream_of.flat[row]} at row {row}"
                    )
            stream_of = stream_of.astype(np.int64)
            if stream_of.min() < 0 or stream_of.max() >= self.streams:
                raise ValueError(
                    f"stream indices must lie in [0, {self.streams}), "
                    f"got [{stream_of.min()}, {stream_of.max()}]"
                )
        if granularity is None:
            granularity = self.config.granularity
        if granularity == "vector":
            return self._run_vector(score_s, softmax_s, context_s, stream_of)
        if granularity == "operand":
            return self._run_operand(score_s, softmax_s, context_s, stream_of)
        raise ValueError(f"granularity must be 'vector' or 'operand', got {granularity!r}")

    # ------------------------------------------------------------------ #
    # vector-grained: per-stage FIFO recurrences
    # ------------------------------------------------------------------ #
    def _run_vector(
        self,
        score_s: np.ndarray,
        softmax_s: np.ndarray,
        context_s: np.ndarray,
        stream_of: np.ndarray,
    ) -> ExecutedSchedule:
        n = score_s.size
        handoff = self.config.stage_handoff_s
        starts = np.empty((n, len(STAGES)))
        ends = np.empty((n, len(STAGES)))
        busy_s: dict[str, float] = {}
        queue_peaks: dict[str, int] = {}

        # every row reaches the score stage at t = 0, in row order; each
        # stage is then solved whole, because a stage's schedule depends
        # only on its arrivals and on its own servers
        arrive = np.zeros(n)
        order = np.arange(n)
        for index, (stage, service) in enumerate(
            zip(STAGES, (score_s, softmax_s, context_s))
        ):
            if stage == "softmax":
                start, end, started, engine_of, busy_s[stage] = _pool_fifo(
                    order, arrive, service, self.softmax_speedups, handoff
                )
            else:
                start, end, started, busy_s[stage] = _keyed_fifo(
                    order, arrive, service, stream_of, self.streams, handoff
                )
            starts[:, index] = start
            ends[:, index] = end
            queue_peaks[stage] = _queue_peak(order, arrive, start)
            # a row reaches the next stage when its server has forwarded it;
            # simultaneous arrivals keep the order their services started in
            arrive = end + handoff
            order = started[np.argsort(arrive[started], kind="stable")]

        engine_rows = np.bincount(engine_of, minlength=self.softmax_engines)
        return self._package(
            "vector", starts, ends, engine_of, stream_of,
            busy_s, queue_peaks, tuple(engine_rows.tolist()),
        )

    # ------------------------------------------------------------------ #
    # operand-grained: stage barriers
    # ------------------------------------------------------------------ #
    def _run_operand(
        self,
        score_s: np.ndarray,
        softmax_s: np.ndarray,
        context_s: np.ndarray,
        stream_of: np.ndarray,
    ) -> ExecutedSchedule:
        n = score_s.size
        starts = np.zeros((n, len(STAGES)))
        ends = np.zeros((n, len(STAGES)))
        engine_of = np.zeros(n, dtype=np.int64)
        busy_s: dict[str, float] = {}

        phase_start = 0.0
        for index, (stage, service) in enumerate(
            zip(STAGES, (score_s, softmax_s, context_s))
        ):
            pooled = stage == "softmax"
            free_at = [phase_start] * (self.softmax_engines if pooled else self.streams)
            busy_s[stage] = 0.0
            for row in range(n):
                if pooled:
                    # the first engine to free takes the row
                    server = engine_of[row] = int(np.argmin(free_at))
                    duration = service[row] / self.softmax_speedups[server]
                else:
                    server = int(stream_of[row])
                    duration = service[row]
                starts[row, index] = free_at[server]
                ends[row, index] = free_at[server] + duration
                free_at[server] = ends[row, index]
                busy_s[stage] += duration
            # one handoff per stage boundary — the operand is forwarded once
            phase_start = max(free_at) + self.config.stage_handoff_s

        engine_rows = np.bincount(engine_of, minlength=self.softmax_engines)
        # the whole operand queues ahead of every phase: all rows are
        # resident before any of them starts
        return self._package(
            "operand", starts, ends, engine_of, stream_of,
            busy_s, {stage: n for stage in STAGES}, tuple(engine_rows.tolist()),
        )

    # ------------------------------------------------------------------ #
    # packaging
    # ------------------------------------------------------------------ #
    def _package(
        self,
        granularity: str,
        starts: np.ndarray,
        ends: np.ndarray,
        engine_of: np.ndarray,
        stream_of: np.ndarray,
        stage_busy_s: dict[str, float],
        queue_peaks: dict[str, int],
        engine_rows: tuple[int, ...],
    ) -> ExecutedSchedule:
        # the final forward of the context stage is writeback overlap, so a
        # row completes when its context service ends
        completions = ends[:, 2]
        total = float(completions.max())
        return ExecutedSchedule(
            granularity=granularity,
            total_latency_s=total,
            steady_state_interval_s=_steady_interval(completions, total),
            num_streams=self.streams,
            num_softmax_engines=self.softmax_engines,
            starts=starts,
            ends=ends,
            engine_of=engine_of,
            stream_of=stream_of,
            stage_busy_s=stage_busy_s,
            queue_peaks=queue_peaks,
            engine_rows=engine_rows,
        )


# ---------------------------------------------------------------------- #
# functional execution: real tensors through the schedule
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class AttentionExecution:
    """Output tensors and the executed schedule of one attention forward."""

    context: np.ndarray
    scores: np.ndarray
    weights: np.ndarray
    schedule: ExecutedSchedule


def _row_share(before, after, rows: int):
    """One row's share of the ledger delta a block of ``rows`` rows added.

    Every crossbar count a GEMM block adds scales with the rows it
    streamed, so the integer division is exact.
    """
    return replace(
        before,
        **{
            f.name: (getattr(after, f.name) - getattr(before, f.name)) // rows
            for f in fields(after)
        },
    )


def _softmax_row_latencies(engine: "RRAMSoftmaxEngine", seq_len: int) -> np.ndarray:
    """Latency of each row of the engine's last block, from its own LUT reads.

    The rows of one block differ only in their CAM misses (a missed element
    reads no LUT row); every other count of a row's
    :class:`~repro.core.access_stats.AccessStats` follows from ``seq_len``,
    and the latency charges no counter increments.
    """
    reads, row_reads = np.unique(engine.last_lut_reads, return_inverse=True)
    latencies = [
        engine.latency_s_of(
            AccessStats.for_block(1, seq_len, lut_reads=r, cam_misses=seq_len - r)
        )
        for r in reads.tolist()
    ]
    return np.array(latencies)[row_reads]


class AttentionExecutor:
    """Streams real attention tensors through the executed schedule.

    The functional counterpart of :class:`PipelineExecutor`: given
    ``(batch, heads, seq, head_dim)`` query/key/value tensors it

    1. programs each head's ``K^T`` and ``V`` operands into persistent
       :class:`~repro.core.matmul_engine.MatMulEngine` tile banks,
    2. streams each (batch, head) through the engines as one block: one
       score GEMM over the head's query rows, the finished score rows
       softmaxed by the engine pool, and one context GEMM against the
       ``V`` tiles — producing the actual attention output, and
    3. *measures* each row's three stage service times from the engines'
       access-statistics ledgers and replays them through
       :class:`PipelineExecutor` to obtain the :class:`ExecutedSchedule`.

    A GEMM row's service time is its share of the block's ledger delta on
    ``MatMulEngine.access_stats`` (every crossbar count scales with the
    rows streamed) divided by the bank's tile count: the tiles of one
    operand bank fire in parallel on the same input row — the same
    tile-parallelism assumption
    :meth:`~repro.core.matmul_engine.MatMulEngine.row_latency_s` makes.
    Softmax rows are spread round-robin over the pool across all rows of
    the call, and each engine softmaxes its rows of a head as one strided
    block; a row's service time comes from its own LUT reads
    (:attr:`~repro.core.softmax_engine.RRAMSoftmaxEngine.last_lut_reads`)
    through the engine's ``latency_s_of``.  The engines are assumed
    homogeneous — per-engine *speed* asymmetry is a timed-executor
    scenario, see ``softmax_speedups`` — while the schedule dispatches rows
    to whichever engine frees first.

    With ideal devices the outputs, the schedule and every ledger are
    bit-identical to streaming the rows one at a time
    (``tests/core/test_attention_executor_oracle.py`` keeps that loop as
    the oracle).  A noisy softmax engine draws a block's read noise for all
    its readouts before its denominators, rather than row by row, so its
    outputs are exact in law, not draw for draw.  Noisy crossbar tiles and
    CAM search errors still draw row by row in row order, so they match
    the per-row loop draw for draw.
    """

    def __init__(
        self,
        matmul_engine: "MatMulEngine | None" = None,
        softmax_engines: "int | Sequence[RRAMSoftmaxEngine]" = 4,
        config: PipelineConfig | None = None,
        *,
        tiles_per_stream: int = 2,
        jitter: StageJitter | None = None,
    ) -> None:
        if matmul_engine is None:
            from repro.core.matmul_engine import MatMulEngine

            matmul_engine = MatMulEngine()
        self.matmul_engine = matmul_engine
        if isinstance(softmax_engines, numbers.Number):
            from repro.core.softmax_engine import RRAMSoftmaxEngine

            require_positive_int(softmax_engines, "softmax_engines")
            softmax_engines = [RRAMSoftmaxEngine() for _ in range(softmax_engines)]
        self.softmax_pool = list(softmax_engines)
        if not self.softmax_pool:
            raise ValueError("the softmax engine pool must not be empty")
        self.config = config or PipelineConfig()
        require_positive_int(tiles_per_stream, "tiles_per_stream")
        self.tiles_per_stream = tiles_per_stream
        self.jitter = jitter
        self.last_schedule: ExecutedSchedule | None = None

    def executor_for(self, num_heads: int, batch_size: int) -> PipelineExecutor:
        """The timed executor matching this workload's stream/tile allocation."""
        streams = attention_streams(
            num_heads,
            batch_size,
            self.matmul_engine.config.num_tiles,
            self.tiles_per_stream,
        )
        return PipelineExecutor(
            self.config,
            streams=streams,
            softmax_engines=len(self.softmax_pool),
            jitter=self.jitter,
        )

    def run(
        self,
        query: np.ndarray,
        key: np.ndarray,
        value: np.ndarray,
        *,
        scale: float | None = None,
        mask: np.ndarray | None = None,
    ) -> AttentionExecution:
        """Execute attention for ``(batch, heads, seq, head_dim)`` tensors."""
        query = np.asarray(query, dtype=np.float64)
        key = np.asarray(key, dtype=np.float64)
        value = np.asarray(value, dtype=np.float64)
        if query.ndim != 4 or key.shape != query.shape or value.shape != query.shape:
            raise ValueError(
                "query/key/value must share one (batch, heads, seq, head_dim) "
                f"shape, got {query.shape}, {key.shape}, {value.shape}"
            )
        batch, heads, seq_len, head_dim = query.shape
        if seq_len == 0:
            raise ValueError("cannot execute an empty schedule")
        if scale is None:
            scale = 1.0 / np.sqrt(head_dim)
        mask_arr = None
        if mask is not None:
            mask_arr = np.broadcast_to(
                np.asarray(mask, dtype=np.float64), (batch, heads, seq_len, seq_len)
            )

        executor = self.executor_for(heads, batch)
        engine = self.matmul_engine
        pool = self.softmax_pool
        engines = len(pool)
        n = batch * heads * seq_len

        scores = np.empty((batch, heads, seq_len, seq_len))
        weights = np.empty_like(scores)
        context = np.empty_like(query)
        score_s = np.empty(n)
        softmax_s = np.empty(n)
        context_s = np.empty(n)
        stream_of = np.empty(n, dtype=np.int64)

        for head, (b, h) in enumerate(np.ndindex(batch, heads)):
            first = head * seq_len  # the call-wide index of the head's first row
            rows = slice(first, first + seq_len)
            stream_of[rows] = head % executor.streams
            # the head-stream's stationary operands: programmed once,
            # before streaming, so the blocks' ledger deltas are read-only
            k_operand = engine.program_operand(key[b, h].T)
            v_operand = engine.program_operand(value[b, h])

            before = replace(engine.access_stats)
            head_scores = engine.matmul(query[b, h], k_operand) * scale
            score_s[rows] = engine.latency_s_of(
                _row_share(before, engine.access_stats, seq_len)
            ) / k_operand.num_tiles
            if mask_arr is not None:
                head_scores += mask_arr[b, h]
            scores[b, h] = head_scores

            # row i goes to engine (first + i) % engines, so each engine
            # takes a strided block of the head's rows
            for offset in range(min(engines, seq_len)):
                soft = pool[(first + offset) % engines]
                weights[b, h, offset::engines] = soft.softmax_batch(head_scores[offset::engines])
                softmax_s[first + offset : first + seq_len : engines] = (
                    _softmax_row_latencies(soft, seq_len)
                )

            before = replace(engine.access_stats)
            context[b, h] = engine.matmul(weights[b, h], v_operand)
            context_s[rows] = engine.latency_s_of(
                _row_share(before, engine.access_stats, seq_len)
            ) / v_operand.num_tiles

        if self.jitter is not None:
            # ledger-derived service times are deterministic; the configured
            # jitter perturbs them the same way the timed executor would
            factors = self.jitter.factors(n)
            score_s *= factors[:, 0]
            softmax_s *= factors[:, 1]
            context_s *= factors[:, 2]
        schedule = executor.execute_service_times(
            score_s, softmax_s, context_s, stream_of=stream_of
        )
        self.last_schedule = schedule
        return AttentionExecution(
            context=context, scores=scores, weights=weights, schedule=schedule
        )
