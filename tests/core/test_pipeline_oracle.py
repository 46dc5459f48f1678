"""Differential test of the per-stage FIFO executor against a global event loop.

:class:`EventLoopPipelineExecutor` keeps the vector-grained executor's
original discrete-event loop verbatim as the exact reference: one
:class:`~repro.core.events.EventLoop` shared by all three stages, an
``ARRIVE`` and a ``FREE`` event per row and stage, and the keyed or
shared FIFO server pools of :class:`FIFOStage`.
:class:`~repro.core.scheduler.PipelineExecutor` solves the same schedule
one stage at a time with FIFO recurrences, so the two must agree bit for
bit on every row timestamp, engine and stream, on the makespan and
steady-state interval, and on the busy times (summed in the same order),
queue peaks and per-engine row counts.  The oracle's operand-grained
stage barriers likewise keep reading busy times, queue peaks and engine
counts back from their :class:`FIFOStage` pools, which
:class:`~repro.core.scheduler.PipelineExecutor` computes directly.

Service times on the grid ``{0, 0.5, 1, 2, 3}`` make rows arrive and
servers free at the same instant, and zero-duration services free a
server at the instant it started; there only the event loop's tie rules
(FREE before ARRIVE, then insertion order) decide who goes first.
"""

from __future__ import annotations

import dataclasses

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.accelerator import STARAccelerator
from repro.core.config import PipelineConfig
from repro.core.events import ARRIVE, FREE, EventLoop
from repro.core.scheduler import STAGES, ExecutedSchedule, PipelineExecutor, StageJitter
from repro.nn.bert import BertWorkload


class FIFOStage:
    """One stage's servers and FIFO queues, as the event loop kept them (reference only).

    ``keyed`` binds each row to its stream's server, one queue per server
    (the score and context tile groups); a shared stage has one queue
    drained by the lowest-indexed idle server (the softmax engines).
    ``speedups`` divide the nominal service times.
    """

    def __init__(self, name, num_servers, *, keyed=False, speedups=None):
        self.name = name
        self.keyed = keyed
        self.speedups = list(speedups or (1.0,) * num_servers)
        self.idle = [True] * num_servers
        self.queues = [[] for _ in range(num_servers if keyed else 1)]
        self.heads = [0] * len(self.queues)
        self.queued = 0
        self.busy_s = 0.0
        self.queue_peak = 0
        self.served = [0] * num_servers

    def queue_of(self, key):
        return key if self.keyed else 0

    def idle_server(self, key):
        if self.keyed:
            return key if self.idle[key] else None
        return next((index for index, free in enumerate(self.idle) if free), None)

    def enqueue(self, queue, row):
        self.queues[queue].append(row)
        self.queued += 1
        self.queue_peak = max(self.queue_peak, self.queued)

    def pop(self, queue):
        if self.heads[queue] >= len(self.queues[queue]):
            return None
        self.heads[queue] += 1
        self.queued -= 1
        return self.queues[queue][self.heads[queue] - 1]

    def service_time(self, server, nominal_s):
        return nominal_s / self.speedups[server]

    def acquire(self, server):
        self.idle[server] = False
        self.served[server] += 1

    def release(self, server):
        self.idle[server] = True

    def occupy(self, duration_s):
        self.busy_s += duration_s


class EventLoopPipelineExecutor(PipelineExecutor):
    """The global event loop the per-stage recurrences replaced, and the
    pooled operand-grained stage barriers (reference only)."""

    def _build_stages(self) -> list[FIFOStage]:
        return [
            FIFOStage("score", self.streams, keyed=True),
            FIFOStage("softmax", self.softmax_engines, speedups=self.softmax_speedups),
            FIFOStage("context", self.streams, keyed=True),
        ]

    def _run_vector(
        self,
        score_s: np.ndarray,
        softmax_s: np.ndarray,
        context_s: np.ndarray,
        stream_of: np.ndarray,
    ) -> ExecutedSchedule:
        n = score_s.size
        handoff = self.config.stage_handoff_s
        services = (score_s, softmax_s, context_s)
        stages = self._build_stages()
        starts = np.zeros((n, len(STAGES)))
        ends = np.zeros((n, len(STAGES)))
        server_of = np.zeros((n, len(STAGES)), dtype=np.int64)

        # FREE at time t sorts before ARRIVE at time t, so the arrival sees
        # the freshly idled server directly (see repro.core.events)
        loop = EventLoop()
        for row in range(n):
            loop.schedule(0.0, ARRIVE, 0, row)

        def start_service(time: float, stage_index: int, server: int, row: int) -> None:
            stage = stages[stage_index]
            stage.acquire(server)
            service = stage.service_time(server, services[stage_index][row])
            end = time + service
            stage.occupy(service + handoff)
            starts[row, stage_index] = time
            ends[row, stage_index] = end
            server_of[row, stage_index] = server
            # the server forwards the row before accepting the next one
            loop.schedule(end + handoff, FREE, stage_index, server)
            if stage_index + 1 < len(STAGES):
                loop.schedule(end + handoff, ARRIVE, stage_index + 1, row)

        while loop:
            time, kind, (stage_index, payload) = loop.pop()
            stage = stages[stage_index]
            if kind == ARRIVE:
                row = payload
                stream = int(stream_of[row])
                server = stage.idle_server(stream)
                queue = stage.queue_of(stream)
                if server is None:
                    stage.enqueue(queue, row)
                else:
                    start_service(time, stage_index, server, row)
            else:  # FREE
                server = payload
                stage.release(server)
                row = stage.pop(stage.queue_of(server))
                if row is not None:
                    start_service(time, stage_index, server, row)

        return self._package(
            "vector", starts, ends, server_of[:, 1], stream_of,
            {stage.name: stage.busy_s for stage in stages},
            {stage.name: stage.queue_peak for stage in stages},
            tuple(stages[1].served),
        )

    def _run_operand(
        self,
        score_s: np.ndarray,
        softmax_s: np.ndarray,
        context_s: np.ndarray,
        stream_of: np.ndarray,
    ) -> ExecutedSchedule:
        n = score_s.size
        handoff = self.config.stage_handoff_s
        services = (score_s, softmax_s, context_s)
        stages = self._build_stages()
        starts = np.zeros((n, len(STAGES)))
        ends = np.zeros((n, len(STAGES)))
        server_of = np.zeros((n, len(STAGES)), dtype=np.int64)

        phase_start = 0.0
        for stage_index, stage in enumerate(stages):
            free_at = [phase_start] * len(stage.idle)
            for row in range(n):
                if stage.keyed:
                    server = int(stream_of[row])
                else:
                    server = int(np.argmin(free_at))
                service = stage.service_time(server, services[stage_index][row])
                starts[row, stage_index] = free_at[server]
                ends[row, stage_index] = free_at[server] + service
                server_of[row, stage_index] = server
                free_at[server] = ends[row, stage_index]
                stage.occupy(service)
                stage.served[server] += 1
            # the whole operand queues ahead of every phase: all rows are
            # resident before any of them starts
            stage.queue_peak = n
            # one handoff per stage boundary — the operand is forwarded once
            phase_start = max(free_at) + handoff

        return self._package(
            "operand", starts, ends, server_of[:, 1], stream_of,
            {stage.name: stage.busy_s for stage in stages},
            {stage.name: stage.queue_peak for stage in stages},
            tuple(stages[1].served),
        )


def bits(value):
    """Floats as their exact hex spelling, so ``==`` means bit-identical."""
    return value.hex() if isinstance(value, float) else value


def assert_bit_identical(executed: ExecutedSchedule, oracle: ExecutedSchedule) -> None:
    assert [tuple(map(bits, dataclasses.astuple(r))) for r in executed.records] == [
        tuple(map(bits, dataclasses.astuple(r))) for r in oracle.records
    ]
    assert bits(executed.total_latency_s) == bits(oracle.total_latency_s)
    assert bits(executed.steady_state_interval_s) == bits(oracle.steady_state_interval_s)
    assert {k: bits(float(v)) for k, v in executed.stage_busy_s.items()} == {
        k: bits(float(v)) for k, v in oracle.stage_busy_s.items()
    }
    assert executed.queue_peaks == oracle.queue_peaks
    assert executed.engine_rows == oracle.engine_rows
    assert executed == oracle


def run_both(services, handoff, streams, speedups, stream_of=None, granularity="vector"):
    config = PipelineConfig(stage_handoff_s=handoff)
    kwargs = dict(streams=streams, softmax_engines=len(speedups), softmax_speedups=speedups)
    executed = PipelineExecutor(config, **kwargs).execute_service_times(
        *services, granularity=granularity, stream_of=stream_of
    )
    oracle = EventLoopPipelineExecutor(config, **kwargs).execute_service_times(
        *services, granularity=granularity, stream_of=stream_of
    )
    assert executed.granularity == oracle.granularity == granularity
    assert_bit_identical(executed, oracle)
    return executed


GRID = (0.0, 0.5, 1.0, 2.0, 3.0)


@st.composite
def pipelines(draw):
    rows = draw(st.integers(min_value=1, max_value=40))
    services = tuple(
        np.array(draw(st.lists(st.sampled_from(GRID), min_size=rows, max_size=rows)))
        for _ in STAGES
    )
    streams = draw(st.integers(min_value=1, max_value=8))
    speedups = tuple(
        draw(st.lists(st.sampled_from((1.0, 0.5, 2.0, 3.0)), min_size=1, max_size=8))
    )
    stream_of = draw(
        st.one_of(
            st.none(),
            st.lists(
                st.integers(min_value=0, max_value=streams - 1), min_size=rows, max_size=rows
            ).map(np.array),
        )
    )
    handoff = draw(st.sampled_from((0.0, 0.5, 1.0)))
    return services, handoff, streams, speedups, stream_of


class TestAgainstEventLoopOracle:
    @settings(max_examples=800, deadline=None)
    @given(case=pipelines())
    # a row that arrives as its stream frees starts on its own ARRIVE
    @example(case=((np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.ones(2)), 0.0, 1,
                   (1.0, 1.0), None))
    # an engine freeing at an arrival instant is idle for it, and the
    # lowest-index idle engine wins over the one that freed first
    @example(case=((np.array([0.0, 1.0, 2.0]), np.array([3.0, 2.0, 1.0]), np.zeros(3)),
                   0.0, 3, (1.0, 1.0), None))
    def test_grid_bit_identical(self, case):
        run_both(*case)

    def test_all_zero_pipeline(self):
        zeros = np.zeros(24)
        schedule = run_both((zeros, zeros, zeros), 0.0, 3, (1.0, 2.0), None)
        assert schedule.total_latency_s == 0.0
        run_both((zeros, zeros, zeros), 0.5, 3, (1.0, 2.0), None)

    def test_more_servers_than_rows(self):
        services = (np.array([1.0, 2.0]), np.array([0.5, 0.5]), np.array([3.0, 0.0]))
        schedule = run_both(services, 0.5, 8, (1.0,) * 8, None)
        assert schedule.queue_peaks == {stage: 0 for stage in STAGES}
        # row 1 reaches softmax at 2.5, the instant engine 0 frees, and the
        # lowest-index idle engine takes it
        assert schedule.engine_rows == (2, 0, 0, 0, 0, 0, 0, 0)

    def test_jittered_bert_layer(self):
        star = STARAccelerator()
        workload = BertWorkload(seq_len=64, batch_size=2)
        timing = star.native_attention_stage_timing(workload)
        jitter = StageJitter(sigma=0.3, seed=4)
        score, softmax, context = PipelineExecutor(jitter=jitter)._service_times(timing)
        stream_of = np.arange(timing.num_rows) // workload.seq_len % 6
        run_both((score, softmax, context), 2e-9, 6, (1.0, 0.75, 1.5, 1.0), stream_of)


class TestOperandAgainstPooledOracle:
    @settings(max_examples=300, deadline=None)
    @given(case=pipelines())
    def test_grid_bit_identical(self, case):
        run_both(*case, granularity="operand")

    def test_all_zero_pipeline(self):
        zeros = np.zeros(24)
        schedule = run_both((zeros, zeros, zeros), 0.0, 3, (1.0, 2.0), granularity="operand")
        assert schedule.total_latency_s == 0.0
        run_both((zeros, zeros, zeros), 0.5, 3, (1.0, 2.0), granularity="operand")

    def test_more_engines_than_rows(self):
        services = (np.array([1.0, 2.0]), np.array([0.5, 0.5]), np.array([3.0, 0.0]))
        schedule = run_both(services, 0.5, 8, (1.0,) * 8, granularity="operand")
        # every row is resident before the phase starts, so each stage's
        # queue peaks at the row count, and the rows spread over the
        # engines that are all free at the barrier
        assert schedule.queue_peaks == {stage: 2 for stage in STAGES}
        assert schedule.engine_rows == (1, 1, 0, 0, 0, 0, 0, 0)

    def test_jittered_bert_layer(self):
        star = STARAccelerator()
        workload = BertWorkload(seq_len=64, batch_size=2)
        timing = star.native_attention_stage_timing(workload)
        jitter = StageJitter(sigma=0.3, seed=4)
        score, softmax, context = PipelineExecutor(jitter=jitter)._service_times(timing)
        stream_of = np.arange(timing.num_rows) // workload.seq_len % 6
        run_both(
            (score, softmax, context), 2e-9, 6, (1.0, 0.75, 1.5, 1.0), stream_of,
            granularity="operand",
        )


class TestFIFOStage:
    """The oracle's stage keeps the FIFO semantics both executors are checked against."""

    def test_shared_stage_takes_lowest_idle(self):
        stage = FIFOStage("softmax", 3)
        assert stage.idle_server(2) == 0
        stage.acquire(0)
        assert stage.idle_server(2) == 1

    def test_keyed_stage_binds_to_key(self):
        stage = FIFOStage("score", 2, keyed=True)
        stage.acquire(1)
        assert stage.idle_server(0) == 0
        assert stage.idle_server(1) is None

    def test_queue_is_fifo(self):
        stage = FIFOStage("softmax", 1)
        stage.enqueue(0, "a")
        stage.enqueue(0, "b")
        assert stage.pop(0) == "a"
        assert stage.pop(0) == "b"
        assert stage.pop(0) is None

    def test_queue_peak_tracks_depth(self):
        stage = FIFOStage("softmax", 1)
        for row in range(3):
            stage.enqueue(0, row)
        stage.pop(0)
        stage.enqueue(0, 3)
        assert stage.queued == 3 and stage.queue_peak == 3

    def test_keyed_queues_are_separate(self):
        stage = FIFOStage("context", 2, keyed=True)
        stage.enqueue(stage.queue_of(0), "x")
        stage.enqueue(stage.queue_of(1), "y")
        assert stage.pop(0) == "x"
        assert stage.pop(1) == "y"
        assert stage.queue_peak == 2

    def test_speedups_divide_service_time_and_acquire_counts_rows(self):
        stage = FIFOStage("softmax", 2, speedups=(1.0, 4.0))
        assert stage.service_time(0, 8.0) == 8.0
        assert stage.service_time(1, 8.0) == 2.0
        stage.acquire(1)
        stage.release(1)
        stage.acquire(1)
        assert stage.served == [0, 2]

    @settings(max_examples=200, deadline=None)
    @given(
        keyed=st.booleans(),
        num_servers=st.integers(min_value=1, max_value=6),
        steps=st.lists(
            st.tuples(st.booleans(), st.integers(min_value=0, max_value=5)), max_size=80
        ),
    )
    def test_running_depth_matches_recount(self, keyed, num_servers, steps):
        # each step enqueues onto (True) or pops from (False) one queue;
        # pops of empty queues are no-ops and must not move the count
        stage = FIFOStage("stage", num_servers, keyed=keyed)
        peak = 0
        for index, (push, key) in enumerate(steps):
            queue = stage.queue_of(key % num_servers)
            if push:
                stage.enqueue(queue, index)
            else:
                stage.pop(queue)
            recount = sum(len(q) - h for q, h in zip(stage.queues, stage.heads))
            peak = max(peak, recount)
            assert stage.queued == recount
            assert stage.queue_peak == peak
