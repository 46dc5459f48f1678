"""Differential test of the serving loop against its event-per-arrival form.

:class:`EventPerArrivalSimulator` keeps the serving loop as it was before
two event-cost cuts, verbatim, as the exact reference: it pushes every
open-loop arrival onto the event heap before the first pop, and it
schedules a plain dispatch sweep at every landing and every chip release.
:class:`~repro.serving.simulator.ServingSimulator` reads open-loop
arrivals from a sorted cursor merged with the heap and schedules a plain
sweep only when one could act (see :mod:`repro.serving.simulator`).  What
a skipped sweep would have done, a kept sweep of the same instant does
first, so the two must agree bit for bit on every table and ledger of the
report: requests, batches and steals; shed, abandoned, retry, failure and
scale-event records; busy, sleep and queue peaks; routing stats.  Only the
hot-path counters of ``last_profile`` differ.

Hypothesis draws the queue topology (the global queue, or per-chip queues
under each routing policy, stealing on and off, link and steal hops of
zero and not), the batcher (FIFO or EDF, with and without a wait timer,
caps 1-8), the hooks (faults with retry, admission control and shedding;
the autoscaler), open- or closed-loop traffic, and uneven fleets with
fixed or exponential service.  Open-loop traces sit on a 0.5 ms grid, so
arrivals, hops, completions and timers meet at the same instants, where
only the loop's tie rules decide the order.
"""

from __future__ import annotations

import dataclasses
from heapq import heappop, heappush
from operator import itemgetter
from typing import Sequence

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.events import ARRIVE, FREE, EventLoop, ServerPool
from repro.serving import (
    AdmissionController,
    Autoscaler,
    ChipFleet,
    ClosedLoopClients,
    DynamicBatcher,
    ExponentialServiceModel,
    FaultInjector,
    FixedServiceModel,
    NetworkModel,
    PoissonArrivals,
    RetryPolicy,
    Router,
    ServingReport,
    ServingSimulator,
    SLOClass,
    SLOPolicy,
    TraceArrivals,
)
from repro.serving.arrivals import Request
from repro.serving.faults import NO_ADMISSION
from repro.serving.fleet import ServiceModel
from repro.serving.report import (
    BatchTable,
    DropRecord,
    FailureRecord,
    RequestTable,
    RetryRecord,
    ScaleEvent,
    StealTable,
)
from repro.serving.routing import ROUTING_POLICIES, front_end
from repro.serving.simulator import _assemble_tables, _per_chip_busy, _routing_stats

# the reference loop's event kinds and power states, as it defined them
_FAIL, _REPAIR, _WAKE = FREE - 3, FREE - 2, FREE - 1
_HOP, _DISPATCH, _TICK = 3, 4, 5  # kind 2 was a kind the loop never used
_AWAKE, _WAKING, _SLEEPING = 0, 1, 2
_LAST = (float("inf"), float("inf"))


class EventPerArrivalSimulator(ServingSimulator):
    """The serving loop with one heap event per arrival and a sweep per landing (reference only)."""

    def _simulate(
        self,
        ordered: Sequence[Request],
        clients: ClosedLoopClients | None = None,
        num_requests: int = 0,
    ) -> tuple[ServingReport, EventLoop, int]:
        """The serving event loop before the arrival cursor and the sweep rule.

        Serves the arrival-ordered ``ordered`` list, or ``num_requests``
        issued by ``clients``.  Returns ``(report, event loop, dispatch
        sweeps)``; an input that completes nothing yields an empty report.
        """
        fleet = self.fleet
        batcher = self.batcher
        router = self.router
        autoscaler = self.autoscaler
        num_chips = fleet.num_chips
        all_chips = tuple(range(num_chips))
        retry = self.retry if self.retry is not None else RetryPolicy()
        admission = self.admission if self.admission is not None else NO_ADMISSION
        deadline_s = retry.deadline_s  # None without a fault hook
        deadline_on = deadline_s is not None
        shedding = deadline_on and admission.shed_expired
        max_queue = admission.max_queue_depth
        degraded_cap = admission.degraded_max_batch
        session = self.faults.session(num_chips) if self.faults is not None else None
        closed = clients is not None
        client_session = clients.session() if closed else None

        loop = EventLoop()
        schedule = loop.schedule
        chips = ServerPool(num_chips)
        idle = chips.idle
        online = chips.online
        ready = batcher.ready
        batch_of = batcher.batch_of
        queue_key = batcher.queue_key
        batch_latency_s = fleet.batch_latency_s
        batch_energy_j = fleet.batch_energy_j
        batch_tier = fleet.batch_tier
        max_wait_s = batcher.max_wait_s
        timed_wait = max_wait_s > 0.0

        # queues: one shared heap, or one per chip behind the router; entries
        # are (drain key, arrival order, request)
        routed = router is not None
        queues: list[list[tuple[float, int, Request]]] = [
            [] for _ in range(num_chips if routed else 1)
        ]
        queue_peaks = [0] * len(queues)
        backlog = 0  # requests queued over all queues
        queue_peak = 0
        queued: set[int] = set()  # indexes awaiting dispatch (timer liveness)
        arrivals = 0  # admitted arrivals: the FIFO key, and routes taken
        dispatch_calls = 0

        # chips: the batch each is serving, its power state, failures
        inflight: list[tuple | None] = [None] * num_chips
        in_service = [0] * num_chips  # requests in service, for the router
        seq = 0  # dispatch sequence: the batch order of the report
        completed: list[tuple] = []
        num_idle = num_chips  # chips idle and able to take work
        offline = 0  # chips not able to take work
        failed = [False] * num_chips
        state = [_AWAKE] * num_chips

        # availability ledger
        shed: list[DropRecord] = []
        abandoned: list[DropRecord] = []
        retries: list[RetryRecord] = []
        failures: list[FailureRecord] = []
        attempts: dict[int, int] = {}  # index -> failed service attempts
        # requests not yet completed, shed or abandoned: at 0 the failure
        # processes and the autoscaler stop renewing and the heap drains
        outstanding = num_requests if closed else len(ordered)

        # closed-loop issue state
        issued = 0
        client_of: dict[int, int] = {}

        # routing
        if routed:
            route = front_end(router, fleet, batcher.max_batch_size, queues, in_service)
            links = router.network.links(num_chips)
            steal_latency_s = router.network.steal_latency_s
            stealing = router.stealing
        hops_to = [0] * num_chips  # requests on a network hop to each chip
        route_network_s = 0.0

        # autoscaler
        sleep_start = [0.0] * num_chips  # meaningful while _SLEEPING
        sleep_intervals: list[list[tuple[float, float]]] = [[] for _ in all_chips]
        scale_events: list[ScaleEvent] = []
        awake_count = num_chips
        awake_accum = 0.0  # awake chip-seconds integrated up to last_transition
        last_transition = 0.0
        window_busy = 0.0  # chips.busy_s at the previous tick
        window_awake = 0.0  # awake_accum at the previous tick

        def refresh(chip: int) -> None:
            """Re-derive whether a chip can take work: awake and not failed."""
            nonlocal num_idle, offline
            can = state[chip] == _AWAKE and not failed[chip]
            if online[chip] != can:
                chips.set_online(chip, can)
                offline += -1 if can else 1
                if idle[chip]:
                    num_idle += 1 if can else -1

        def integrate_awake(time: float) -> None:
            nonlocal awake_accum, last_transition
            awake_accum += awake_count * (time - last_transition)
            last_transition = time

        def think(client: int, time: float) -> None:
            if issued < num_requests:
                schedule(time + client_session.next_think_s(), ARRIVE, None, client)

        def drop(ledger: list, request: Request, time: float, reason: str, tries: int) -> None:
            nonlocal outstanding
            ledger.append(
                DropRecord(index=request.index, time_s=time, reason=reason, attempts=tries)
            )
            outstanding -= 1
            if closed:
                think(client_of.pop(request.index), time)

        def shed_queued(request: Request, time: float) -> None:
            queued.discard(request.index)
            drop(shed, request, time, "deadline", attempts.get(request.index, 0))

        def land(time: float, request: Request, order: int, queue: int) -> None:
            """Join a queue: at arrival, or when the network hop completes."""
            nonlocal backlog, queue_peak
            heap = queues[queue]
            heappush(heap, (queue_key(request, order), order, request))
            backlog += 1
            if backlog > queue_peak:
                queue_peak = backlog
            if len(heap) > queue_peaks[queue]:
                queue_peaks[queue] = len(heap)
            queued.add(request.index)
            schedule(time, _DISPATCH)
            if timed_wait:
                # the maturity timer is the forced sweep itself, due at once
                # for a request already mature (a retry, or a hop of
                # max_wait_s or more)
                mature_s = request.arrival_s + max_wait_s
                schedule(mature_s if mature_s > time else time, _DISPATCH, request.index)

        def dispatch(time: float, forced: int | None) -> None:
            """Release ready batches to chips that can take work until either runs out.

            ``forced`` is the index of the request whose maturity timer
            runs this sweep, or ``None``.  While that request waits, the
            sweep may release one batch the policy holds back (the most
            urgent head, mature or not): ``(arrival + max_wait) - arrival``
            may round below ``max_wait`` and would otherwise strand the
            queue.  A batch released as mature anyway does not spend it.
            """
            nonlocal backlog, num_idle, seq
            force = forced is not None
            while True:
                if force and forced not in queued:
                    force = False
                if routed:
                    # the fleet-wide most urgent mature head, served by its
                    # own chip if that can take work, else (with stealing
                    # on) by the lowest-indexed chip that can, over a hop
                    if not num_idle or not backlog:
                        return
                    queue = -1
                    best = _LAST
                    for q in all_chips:
                        heap = queues[q]
                        while shedding and heap and time > heap[0][2].arrival_s + deadline_s:
                            backlog -= 1
                            shed_queued(heappop(heap)[2], time)
                        if not heap or heap[0] >= best:
                            continue
                        if not stealing and not (idle[q] and online[q]):
                            continue  # without stealing only the home chip serves q
                        # without a wait timer every queued head is already mature
                        if timed_wait and not (
                            force or ready(len(heap), time - heap[0][2].arrival_s)
                        ):
                            continue
                        queue, best = q, heap[0]
                    if queue < 0:
                        return
                    chip = queue if idle[queue] and online[queue] else chips.idle_server()
                    heap = queues[queue]
                    if force and not ready(len(heap), time - best[2].arrival_s):
                        force = False  # spent on a batch that needed it
                else:
                    heap = queues[0]
                    if not heap:
                        return
                    head = heap[0][2]
                    # head-of-line deadline shedding: an expired head must
                    # not mature a batch or burn chip time nobody awaits
                    if shedding and time > head.arrival_s + deadline_s:
                        heappop(heap)
                        backlog -= 1
                        shed_queued(head, time)
                        continue
                    if not ready(len(heap), time - head.arrival_s):
                        if not force:
                            return
                        force = False  # spent on a batch that needs it
                    if not num_idle:
                        return
                    queue, chip = 0, chips.idle_server()
                take = batch_of(len(heap))
                if degraded_cap is not None and any(failed):
                    take = min(take, degraded_cap)
                members = []
                seq_len = 0  # the batch pads to its longest member
                while len(members) < take and heap:
                    request = heappop(heap)[2]
                    backlog -= 1
                    if shedding and time > request.arrival_s + deadline_s:
                        shed_queued(request, time)
                        continue
                    members.append(request)
                    queued.discard(request.index)
                    if request.seq_len > seq_len:
                        seq_len = request.seq_len
                if not members:
                    continue  # everything popped was expired; re-evaluate
                size = len(members)
                service = batch_latency_s(chip, size, seq_len)
                # tier must be read before the chip's model prices another
                # batch — chips may share one model object
                tier = batch_tier(chip)
                energy = batch_energy_j(chip, size, seq_len)
                start_s = time + steal_latency_s if routed and chip != queue else time
                completion = start_s + service
                chips.acquire(chip)
                num_idle -= 1
                chips.occupy(service)
                in_service[chip] = size
                seq += 1
                inflight[chip] = (
                    seq, chip, start_s, completion, seq_len, energy, tier, members, queue, time
                )
                schedule(completion, FREE, chip, seq)

        if autoscaler is not None:
            for chip in range(autoscaler.initial(num_chips), num_chips):
                state[chip] = _SLEEPING
                refresh(chip)
                awake_count -= 1
            schedule(autoscaler.interval_s, _TICK)
        if closed:
            for client in range(clients.num_clients):
                schedule(client_session.next_think_s(), ARRIVE, None, client)
        for request in ordered:
            schedule(request.arrival_s, ARRIVE, request)
        if session is not None:
            for chip in all_chips:
                schedule(session.time_to_failure_s(chip), _FAIL, chip)

        while loop:
            time, kind, data = loop.pop()
            if kind == ARRIVE:
                request = data[0]
                if request is None:  # a closed-loop client finished thinking
                    if issued >= num_requests:
                        continue  # traffic quota reached: the client retires
                    client = data[1]
                    request = client_session.request(issued, time, client)
                    client_of[issued] = client
                    issued += 1
                if max_queue is not None and backlog >= max_queue:
                    drop(shed, request, time, "queue_full", attempts.get(request.index, 0))
                    continue
                order = arrivals
                arrivals += 1
                if not routed:
                    land(time, request, order, 0)
                    continue
                # route among chips that can take work; if none can, among
                # those not parked (failed ones come back at repair)
                queue = route(
                    request,
                    all_chips
                    if not offline
                    else [c for c in all_chips if online[c]]
                    or [c for c in all_chips if state[c] != _SLEEPING],
                )
                hop = links[queue]
                route_network_s += hop
                if hop == 0.0:
                    # zero-latency link: land within the arrival event
                    land(time, request, order, queue)
                else:
                    hops_to[queue] += 1
                    schedule(time + hop, _HOP, request, order, queue)
            elif kind == _DISPATCH:
                # a maturity timer forces its sweep, and is moot once its
                # request has left the queue
                forced = data[0] if data else None
                if forced is not None and forced not in queued:
                    continue
                dispatch_calls += 1
                dispatch(time, forced)
            elif kind == FREE:
                chip, batch_seq = data
                batch = inflight[chip]
                if batch is None or batch[0] != batch_seq:
                    continue  # completion of a batch a failure already killed
                inflight[chip] = None
                in_service[chip] = 0
                chips.release(chip)
                num_idle += 1  # a live batch only runs on a chip that can work
                completed.append(batch)
                members = batch[7]
                outstanding -= len(members)
                if closed:
                    for r in members:
                        think(client_of.pop(r.index), time)
                schedule(time, _DISPATCH)
            elif kind == _HOP:
                request, order, queue = data
                hops_to[queue] -= 1
                land(time, request, order, queue)
            elif kind == _FAIL:
                chip = data[0]
                if outstanding == 0:
                    continue  # traffic resolved: let the failure process die out
                failed[chip] = True
                refresh(chip)
                repaired_s = time + session.downtime_s(chip, fleet.reprogram_latency_s(chip))
                lost = 0
                wasted = 0.0
                batch = inflight[chip]
                if batch is not None:
                    # the in-flight batch dies with the chip
                    inflight[chip] = None
                    in_service[chip] = 0
                    chips.release(chip)
                    _, _, start_s, completion_s, _, energy, _, members, _, _ = batch
                    lost = len(members)
                    service = completion_s - start_s
                    # a steal hop may still be running: no progress yet
                    progress = (time - start_s) / service if service > 0 else 1.0
                    wasted = energy * max(0.0, progress)
                    for request in members:
                        attempt = attempts[request.index] = attempts.get(request.index, 0) + 1
                        if attempt >= retry.max_attempts:
                            drop(abandoned, request, time, "retries_exhausted", attempt)
                            continue
                        reenqueue_s = time + retry.backoff_s(attempt, session.jitter_rng)
                        if deadline_on and reenqueue_s > retry.deadline_of(request.arrival_s):
                            # deadline-aware backoff: a retry that cannot
                            # complete in time is abandoned, not queued
                            drop(abandoned, request, time, "deadline", attempt)
                            continue
                        retries.append(
                            RetryRecord(
                                index=request.index,
                                attempt=attempt,
                                failure_s=time,
                                reenqueue_s=reenqueue_s,
                            )
                        )
                        # a retry re-enters like an arrival: re-routed, under
                        # a router, with a fresh front-end hop
                        schedule(reenqueue_s, ARRIVE, request)
                failures.append(
                    FailureRecord(
                        chip=chip,
                        fail_s=time,
                        repaired_s=repaired_s,
                        lost_requests=lost,
                        wasted_energy_j=wasted,
                    )
                )
                schedule(repaired_s, _REPAIR, chip)
            elif kind == _REPAIR:
                chip = data[0]
                failed[chip] = False
                refresh(chip)
                if outstanding > 0:
                    schedule(time + session.time_to_failure_s(chip), _FAIL, chip)
                    schedule(time, _DISPATCH)
            elif kind == _WAKE:
                chip = data[0]
                integrate_awake(time)
                awake_count += 1
                state[chip] = _AWAKE
                refresh(chip)
                schedule(time, _DISPATCH)
            else:  # _TICK
                if outstanding <= 0:
                    continue  # traffic resolved: the controller stops
                integrate_awake(time)
                awake_delta = awake_accum - window_awake
                busy_delta = chips.busy_s - window_busy
                window_awake = awake_accum
                window_busy = chips.busy_s
                utilization = busy_delta / awake_delta if awake_delta > 0 else 0.0
                active = sum(1 for s in state if s != _SLEEPING)
                delta = autoscaler.decide(utilization, backlog, active)
                if delta > 0:
                    allowed = min(delta, autoscaler.bound(num_chips) - active)
                    for chip in all_chips:
                        if allowed <= 0:
                            break
                        if state[chip] != _SLEEPING:
                            continue
                        # the sleep interval ends at the wake *decision*: the
                        # ramp is priced as wake energy, not sleep leakage
                        sleep_intervals[chip].append((sleep_start[chip], time))
                        state[chip] = _WAKING
                        ready_s = time + fleet.wake_latency_s(chip)
                        scale_events.append(
                            ScaleEvent(
                                chip=chip,
                                time_s=time,
                                action="wake",
                                ready_s=ready_s,
                                energy_j=fleet.wake_energy_j(chip),
                            )
                        )
                        schedule(ready_s, _WAKE, chip)
                        allowed -= 1
                elif delta < 0:
                    allowed = min(-delta, active - autoscaler.min_chips)
                    # park from the top so low-indexed chips stay the stable core
                    for chip in reversed(all_chips):
                        if allowed <= 0:
                            break
                        if state[chip] != _AWAKE or not idle[chip]:
                            continue  # never park a busy chip
                        if routed and (queues[chip] or hops_to[chip]):
                            continue  # nor one with work bound for it
                        state[chip] = _SLEEPING
                        refresh(chip)
                        awake_count -= 1
                        entry = fleet.sleep_entry_latency_s(chip)
                        scale_events.append(
                            ScaleEvent(
                                chip=chip, time_s=time, action="sleep", ready_s=time + entry
                            )
                        )
                        sleep_start[chip] = time + entry
                        allowed -= 1
                schedule(time + autoscaler.interval_s, _TICK)

        completed.sort(key=itemgetter(0))  # dispatch order
        requests, batches = _assemble_tables(completed, attempts)
        chip_sleep_s: tuple[float, ...] = ()
        chip_sleep_power_w: tuple[float, ...] = ()
        if autoscaler is not None:
            chip_sleep_s = (0.0,) * num_chips
            if len(requests):
                window_start = float(requests.arrival_s.min())
                window_end = float(requests.completion_s.max())
                for chip in all_chips:
                    if state[chip] == _SLEEPING:
                        sleep_intervals[chip].append((sleep_start[chip], window_end))
                # clip every sleep interval to the observation window so sleep
                # credit never exceeds the makespan the report charges idle over
                chip_sleep_s = tuple(
                    sum(
                        max(0.0, min(end, window_end) - max(start, window_start))
                        for start, end in sleep_intervals[chip]
                    )
                    for chip in all_chips
                )
            chip_sleep_power_w = tuple(fleet.sleep_power_w(chip) for chip in all_chips)
        report = ServingReport(
            num_chips=num_chips,
            requests=requests,
            batches=batches,
            chip_busy_s=_per_chip_busy(batches, num_chips),
            queue_peak=queue_peak,
            chip_idle_power_w=tuple(fleet.idle_power_w(chip) for chip in all_chips),
            shed=tuple(shed),
            abandoned=tuple(abandoned),
            retries=tuple(retries),
            failures=tuple(failures),
            deadline_s=deadline_s,
            faults_enabled=self.fault_aware,
            scale_events=tuple(scale_events),
            chip_sleep_s=chip_sleep_s,
            chip_sleep_power_w=chip_sleep_power_w,
            routing=_routing_stats(
                router, completed, requests, batches, arrivals, route_network_s, queue_peaks
            )
            if routed
            else None,
        )
        return report, loop, dispatch_calls


# ---------------------------------------------------------------- comparison


def bits(value):
    """A report value with every float spelled in hex, so ``==`` is bit equality."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (RequestTable, BatchTable, StealTable)):
        return {
            field.name: getattr(value, field.name).tobytes()
            for field in dataclasses.fields(value.record)
        }
    if dataclasses.is_dataclass(value):
        return {
            field.name: bits(getattr(value, field.name)) for field in dataclasses.fields(value)
        }
    if isinstance(value, tuple):
        return tuple(bits(item) for item in value)
    return value


def assert_bit_identical(report: ServingReport, oracle: ServingReport) -> None:
    fields = [field.name for field in dataclasses.fields(ServingReport)]
    for name in fields:
        assert bits(getattr(report, name)) == bits(getattr(oracle, name)), name


# ---------------------------------------------------------------- scenarios

GRID_S = 0.5e-3  # trace timestamps and most durations sit on this grid
SLO = SLOPolicy((SLOClass("tight", 2e-3), SLOClass("loose", 12e-3), SLOClass("none")))


@dataclasses.dataclass(frozen=True)
class Scenario:
    """One drawn configuration; :meth:`simulator` builds fresh state per run."""

    num_chips: int
    speedups: tuple[float, ...]
    service_s: float
    exponential_seed: int | None  # None: fixed service
    batcher: DynamicBatcher
    router: Router | None
    faults: FaultInjector | None
    retry: RetryPolicy | None
    admission: AdmissionController | None
    autoscaler: Autoscaler | None
    requests: tuple[Request, ...] = ()
    clients: ClosedLoopClients | None = None
    num_closed: int = 0

    def simulator(self, cls: type[ServingSimulator]) -> ServingSimulator:
        if self.exponential_seed is None:
            model: ServiceModel = FixedServiceModel(
                self.service_s,
                request_energy_j=1e-6,
                idle_power_w=0.1,
                sleep_power_w=0.01,
                sleep_entry_latency_s=GRID_S,
                wake_latency_s=2 * GRID_S,
                wake_energy_j=1e-5,
                reprogram_latency_s=GRID_S,
            )
        else:
            model = ExponentialServiceModel(
                self.service_s, request_energy_j=1e-6, seed=self.exponential_seed
            )
        fleet = ChipFleet(model, num_chips=self.num_chips, speedups=self.speedups)
        return cls(
            fleet,
            self.batcher,
            faults=self.faults,
            retry=self.retry,
            admission=self.admission,
            autoscaler=self.autoscaler,
            router=self.router,
        )

    def serve(self, cls: type[ServingSimulator]) -> ServingReport:
        simulator = self.simulator(cls)
        if self.clients is not None:
            return simulator.run_closed_loop(self.clients, self.num_closed)
        return simulator.run(list(self.requests))


grid = st.integers(0, 8).map(lambda k: k * GRID_S)


@st.composite
def routers(draw, num_chips: int) -> Router | None:
    if draw(st.booleans()):
        return None
    if draw(st.booleans()):
        link: float | tuple[float, ...] = draw(grid)
    else:
        link = tuple(draw(st.lists(grid, min_size=num_chips, max_size=num_chips)))
    network = NetworkModel(link_latency_s=link, steal_latency_s=draw(grid))
    return Router(
        policy=draw(st.sampled_from(ROUTING_POLICIES)),
        network=network,
        stealing=draw(st.booleans()),
    )


@st.composite
def scenarios(draw, shedding: bool = False) -> Scenario:
    """A drawn configuration; ``shedding`` forces deadline shedding under overload."""
    num_chips = draw(st.integers(1, 2 if shedding else 4))
    speedups = tuple(
        draw(st.lists(st.sampled_from((0.5, 1.0, 2.0)), min_size=num_chips, max_size=num_chips))
    )
    batcher = DynamicBatcher(
        max_batch_size=draw(st.integers(1, 8)),
        max_wait_s=draw(st.sampled_from((0.0, 0.0, GRID_S, 2 * GRID_S, 3e-3))),
        order=draw(st.sampled_from(("fifo", "edf"))),
    )
    faults = retry = admission = autoscaler = None
    if draw(st.booleans()):
        faults = FaultInjector(
            mtbf_s=draw(st.sampled_from((4e-3, 10e-3, 30e-3))),
            detection_s=draw(st.sampled_from((0.0, GRID_S, 2e-3))),
            repair_s=draw(st.sampled_from((None, GRID_S, 3e-3))),
            seed=draw(st.integers(0, 1000)),
        )
    if shedding or draw(st.booleans()):
        deadlines = (3e-3, 8e-3) if shedding else (None, 3e-3, 8e-3, 20e-3)
        retry = RetryPolicy(
            max_attempts=draw(st.integers(1, 4)),
            backoff_base_s=draw(st.sampled_from((0.0, GRID_S, 1e-3))),
            jitter=draw(st.sampled_from((0.0, 0.2))),
            deadline_s=draw(st.sampled_from(deadlines)),
        )
    if shedding or draw(st.booleans()):
        admission = AdmissionController(
            max_queue_depth=draw(st.sampled_from((None, 4, 12))),
            shed_expired=shedding or draw(st.booleans()),
            degraded_max_batch=draw(st.sampled_from((None, 1, 2))),
        )
    if draw(st.booleans()):
        autoscaler = Autoscaler(
            interval_s=draw(st.sampled_from((2e-3, 5e-3))),
            scale_up_above=0.8,
            scale_down_below=draw(st.sampled_from((0.2, 0.5))),
            scale_up_queue_depth=draw(st.sampled_from((None, 6))),
            initial_chips=draw(st.integers(1, num_chips)),
        )
    exponential = draw(st.booleans())
    scenario = Scenario(
        num_chips=num_chips,
        speedups=speedups,
        service_s=draw(st.sampled_from((1e-3, 2e-3) if shedding else (GRID_S, 1e-3, 2e-3))),
        exponential_seed=draw(st.integers(0, 1000)) if exponential else None,
        batcher=batcher,
        router=draw(routers(num_chips)),
        faults=faults,
        retry=retry,
        admission=admission,
        autoscaler=autoscaler,
    )
    classes = st.integers(0, SLO.num_classes - 1)
    if draw(st.booleans()):
        num_clients = draw(st.integers(1, 8))
        client_classes = draw(st.lists(classes, min_size=num_clients, max_size=num_clients))
        clients = ClosedLoopClients(
            num_clients=num_clients,
            think_s=draw(st.sampled_from((GRID_S, 2e-3, 5e-3))),
            seq_len=(64, 128, 512),
            slo_class=client_classes,
            deadline_s=[SLO.deadline_of(c) for c in client_classes],
            seed=draw(st.integers(0, 1000)),
        )
        return dataclasses.replace(scenario, clients=clients, num_closed=draw(st.integers(1, 60)))
    if draw(st.booleans()):
        ticks = sorted(draw(st.lists(st.integers(0, 80), min_size=1, max_size=60)))
        base = TraceArrivals([tick * GRID_S for tick in ticks], seq_len=(64, 128, 512), seed=3)
        requests = base.generate()
    else:
        rate = draw(st.sampled_from((4000.0,) if shedding else (300.0, 1500.0, 4000.0)))
        requests = PoissonArrivals(
            rate, seq_len=(64, 128, 512), seed=draw(st.integers(0, 1000))
        ).generate(draw(st.integers(20 if shedding else 1, 80 if shedding else 60)))
    tagged = tuple(SLO.tag(request, draw(classes)) for request in requests)
    return dataclasses.replace(scenario, requests=tagged)


# ---------------------------------------------------------------- tests


def assert_matches_reference(scenario: Scenario) -> None:
    assert_bit_identical(
        scenario.serve(ServingSimulator), scenario.serve(EventPerArrivalSimulator)
    )


@settings(max_examples=400, deadline=None)
@given(scenarios())
def test_loop_matches_event_per_arrival_reference(scenario):
    assert_matches_reference(scenario)


@settings(max_examples=200, deadline=None)
@given(scenarios(shedding=True))
def test_overloaded_shedding_matches_reference(scenario):
    # expired heads are shed by whichever sweep runs first after they
    # expire, so a sweep skipped or added here moves a shed record
    assert_matches_reference(scenario)


def test_open_loop_arrival_goes_before_a_retry_of_its_instant():
    # a retry re-enters on the heap; an open-loop arrival at the same
    # instant comes from the cursor and must take the earlier FIFO slot
    requests = PoissonArrivals(2000.0, seq_len=128, seed=4).generate(30)
    scenario = Scenario(
        num_chips=1,
        speedups=(1.0,),
        service_s=1e-3,
        exponential_seed=None,
        batcher=DynamicBatcher(max_batch_size=1),
        router=None,
        faults=FaultInjector(mtbf_s=5e-3, repair_s=GRID_S, seed=2),
        retry=RetryPolicy(backoff_base_s=GRID_S, jitter=0.0),
        admission=None,
        autoscaler=None,
        requests=tuple(requests),
    )
    retry_s = scenario.serve(EventPerArrivalSimulator).retries[0].reenqueue_s
    tied = dataclasses.replace(
        scenario, requests=tuple(requests) + (Request(len(requests), retry_s, 128),)
    )
    reference = tied.serve(EventPerArrivalSimulator)
    assert retry_s in [retry.reenqueue_s for retry in reference.retries]
    assert_bit_identical(tied.serve(ServingSimulator), reference)
