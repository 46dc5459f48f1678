"""Request-level discrete-event simulation of a serving fleet.

The simulator is a client of :mod:`repro.core.events`: an
:class:`~repro.core.events.EventLoop` orders the run's events and a
:class:`~repro.core.events.ServerPool` records which chips are idle and
online and their busy time.  The *servers* are whole accelerator chips,
the *items* are inference requests, and service times are whole-model
batched inference latencies from the fleet's service model.

One event loop serves every configuration.  It is set up only by what
:class:`ServingSimulator` takes:

* **Queue topology.**  ``router=None`` keeps one fleet-wide heap that any
  idle chip drains, lowest-indexed chip first.  A
  :class:`~repro.serving.routing.Router` puts one heap per chip behind a
  front end: each arrival is routed to a queue and crosses that chip's
  network link before joining it, and an idle chip whose own queue holds
  no mature batch may steal one from a peer queue, paying a steal hop.
* **Drain key.**  Heaps are keyed by the batcher's
  :meth:`~repro.serving.batcher.DynamicBatcher.queue_key`: arrival order
  (FIFO) or absolute deadline (EDF), arrival order breaking ties.  A
  queue releases a batch to an idle chip once it holds ``max_batch_size``
  requests or its head has waited ``max_wait_s``.  A batch pads to its
  longest member's sequence length and completes all members at once.  In
  the single-chip, no-batching limit with deterministic service the global
  queue is exactly an M/D/1 queue, which :mod:`repro.serving.theory`
  cross-validates.
* **Arrival source.**  An open-loop request list (:meth:`~ServingSimulator.run`)
  or closed-loop clients (:meth:`~ServingSimulator.run_closed_loop`): a
  client thinks, issues a request, and thinks again once that request
  completes, is shed or is abandoned.
* **Optional hooks.**  A :class:`~repro.serving.faults.FaultInjector` runs
  per-chip failure and repair processes: the failing chip's in-flight
  batch dies (its energy so far is charged as wasted) and its requests
  retry through the :class:`~repro.serving.faults.RetryPolicy` — re-routed,
  under a router — or are abandoned.  Repair costs detection plus the
  chip's full-model reprogramming.  An
  :class:`~repro.serving.faults.AdmissionController` bounds the backlog,
  sheds expired queue heads and caps batches while any chip is down.  An
  :class:`~repro.serving.autoscale.Autoscaler` ticks periodically and
  parks or wakes chips over the fleet's RRAM power-state model (parking
  drains into deep sleep; waking pays the wake latency and energy).

The hooks compose under a few rules:

* A chip takes work only while it is awake and not failed.  Failures keep
  running on parked chips, and repairing a parked chip leaves it parked.
* The autoscaler parks only an idle chip with an empty own queue and no
  request on a network hop to it, so per-chip queues never strand work.
  The front end routes only to chips that can take work, or, if none can,
  to chips that are not parked.
* Every request that enters or re-enters a queue gets a maturity timer at
  ``max(now, arrival_s + max_wait_s)``: a dispatch sweep forced for that
  request, skipped if the request has left the queue by then.
* A *plain sweep* (one forced for no request) sheds expired queue heads
  and hands ready batches to chips that can take work.  One is asked for
  only when it could act:

  - when a request lands in the global queue and either some chip can
    take work and the queue is ready, or shedding is on and the head has
    expired;
  - when a request lands in a per-chip queue while some chip can take
    work, and either the landed queue can release (its head is ready,
    and its home chip can take work or stealing is on), or the landed
    request is already mature, or a request whose maturity timer has
    fired is still queued, or shedding is on and the time is past a
    lower bound on the queue heads' expiries;
  - when a chip frees while requests are queued;
  - at every repair and wake.

  What a skipped sweep would have released or shed, a kept sweep of the
  same instant does before anything else happens, so while every batch
  takes a positive time the rule changes no result.  (A maturity timer's
  force can be spent on another queue's head, leaving its own request
  unreleased beside an idle chip; the timer clause keeps the sweeps that
  request used to be picked up by.)
* A plain sweep asked for at a landing or a chip release runs in place
  when nothing else is due at its instant: the heap's next event, the
  cursor's next arrival and the next hop all come strictly later, so it
  would be the next event popped anyway.  Otherwise it is scheduled.
* Open-loop arrivals and network hops are not heap events.  A cursor
  reads the arrival-sorted request list, and its next request goes
  before the heap's next event iff ``(arrival_s, ARRIVE) <= (time, kind)``
  of that event — the order they had when all were scheduled before the
  run, so ahead of any retry arriving at the same instant.  A link's
  latency is fixed, so the hops over links of one latency land in the
  order they were sent: each distinct latency keeps one FIFO lane, and
  the earliest lane head, keyed ``(land_s, HOP)`` and by send order
  within an instant, is the next hop.  One merge takes the earliest of
  heap, cursor and hops.  A hop over a zero-latency link lands inside
  its arrival event; closed-loop arrivals and retries are heap events.
* Records are written once, when a batch completes; a killed batch writes
  none.  The report lists batches in dispatch order, so fault-free runs
  list requests in dispatch order too.

Results accumulate as one tuple per completed batch; the report's
columnar tables are built from them by one vectorized gather at the end.
``tests/serving/test_serving_loop_oracle.py`` keeps the loop that pushed
every arrival and hop onto the heap and swept at every landing and
completion as the exact reference of the sweep, in-place and merge rules.
"""

from __future__ import annotations

import time as _time
from collections import deque
from functools import reduce
from heapq import heappop, heappush
from itertools import repeat
from operator import add, itemgetter
from typing import Sequence

import numpy as np

from repro.core.events import ARRIVE, FREE, EventLoop, ServerPool
from repro.serving.arrivals import ClosedLoopClients, Request
from repro.serving.autoscale import Autoscaler
from repro.serving.batcher import NO_BATCHING, DynamicBatcher
from repro.serving.faults import AdmissionController, FaultInjector, NO_ADMISSION, RetryPolicy
from repro.serving.fleet import ChipFleet
from repro.serving.profiling import PROFILER, RunProfile
from repro.serving.report import (
    BatchTable,
    DropRecord,
    FailureRecord,
    RequestTable,
    RetryRecord,
    RoutingStats,
    ScaleEvent,
    ServingReport,
    StealTable,
)
from repro.serving.routing import Router, front_end
from repro.utils.validation import require_positive_int

__all__ = ["ServingSimulator"]

#: Event kinds, in the order events of one instant are processed.  A
#: failure tied with a completion kills the batch (the conservative
#: reading); repairs and wakes are visible to same-instant work; a chip
#: freeing is seen by a simultaneous arrival; every arrival and network
#: landing of an instant is queued before any dispatch sweep decides on
#: batches; the autoscaler ticks last, on the settled state.  A maturity
#: timer is a dispatch sweep forced for its request.  Sweeps of one
#: instant run in the order they were scheduled, so a timer set when its
#: request landed, earlier, sweeps before those the instant's own events
#: ask for.  Hops never enter the heap; ``_HOP`` ranks them in the merge.
_FAIL, _REPAIR, _WAKE = FREE - 3, FREE - 2, FREE - 1
_HOP, _DISPATCH, _TICK = ARRIVE + 1, ARRIVE + 2, ARRIVE + 3

# chip power states under an autoscaler
_AWAKE, _WAKING, _SLEEPING = 0, 1, 2

# A batch, from dispatch to the report:
# (dispatch seq, chip, dispatch_s, completion_s, seq_len, energy_j, tier,
#  members, home queue, decided_s).  ``decided_s`` precedes ``dispatch_s``
# by the steal hop when the chip served a peer's queue.

# Sorts after every queue entry (drain key, arrival order, request): the
# arrival order breaks ties between equal keys, even infinite ones.  It
# also sorts after every event key (time, kind, ...), even at time inf, so
# it stands for a merge source with nothing left.
_INF = float("inf")
_LAST = (_INF, _INF)


def _assemble_tables(
    completed: list[tuple], attempts: dict[int, int]
) -> tuple[RequestTable, BatchTable]:
    """Build the report tables from completed batches in dispatch order.

    Per-request dispatch/completion/chip/size/seq_len are batch-constant,
    so they are one fancy-indexed gather from the batch columns.
    """
    if not completed:
        return RequestTable.empty(), BatchTable.empty()
    _, chip, dispatch_s, completion_s, seq_len, energy_j, tier, members, _, _ = zip(
        *completed
    )
    chip = np.asarray(chip, dtype=np.int64)
    dispatch_s = np.asarray(dispatch_s, dtype=np.float64)
    completion_s = np.asarray(completion_s, dtype=np.float64)
    seq_len = np.asarray(seq_len, dtype=np.int64)
    size = np.fromiter(map(len, members), dtype=np.int64, count=len(members))
    flat = [request for batch in members for request in batch]
    count = len(flat)
    batch_of_request = np.repeat(np.arange(len(members), dtype=np.int64), size)
    requests = RequestTable(
        index=np.fromiter((r.index for r in flat), dtype=np.int64, count=count),
        arrival_s=np.fromiter((r.arrival_s for r in flat), dtype=np.float64, count=count),
        dispatch_s=dispatch_s[batch_of_request],
        completion_s=completion_s[batch_of_request],
        chip=chip[batch_of_request],
        batch_index=batch_of_request,
        batch_size=size[batch_of_request],
        seq_len=seq_len[batch_of_request],
        attempts=np.fromiter(
            (attempts.get(r.index, 0) for r in flat), dtype=np.int64, count=count
        )
        if attempts
        else np.zeros(count, dtype=np.int64),
        slo_class=np.fromiter((r.slo_class for r in flat), dtype=np.int64, count=count),
        deadline_s=np.fromiter((r.deadline_s for r in flat), dtype=np.float64, count=count),
    )
    batches = BatchTable(
        index=np.arange(len(members), dtype=np.int64),
        chip=chip,
        dispatch_s=dispatch_s,
        completion_s=completion_s,
        size=size,
        seq_len=seq_len,
        energy_j=energy_j,
        tier=tier,
    )
    return requests, batches


def _routing_stats(
    router: Router,
    completed: list[tuple],
    requests: RequestTable,
    batches: BatchTable,
    num_routed: int,
    route_network_s: float,
    queue_peaks: list[int],
) -> RoutingStats:
    """The per-queue ledger of a routed run, from its completed batches."""
    num_queues = len(queue_peaks)
    queue = np.fromiter(map(itemgetter(8), completed), dtype=np.int64, count=len(completed))
    decided_s = np.fromiter(map(itemgetter(9), completed), dtype=np.float64, count=len(completed))
    queue_of_request = queue[requests.batch_index]
    stolen = np.flatnonzero(queue != batches.chip)
    steals = StealTable(
        batch_index=stolen,
        queue=queue[stolen],
        chip=batches.chip[stolen],
        decided_s=decided_s[stolen],
    )
    # summed one steal hop at a time, as the hops accrued
    steal_network_s = reduce(add, repeat(router.network.steal_latency_s, len(steals)), 0.0)
    return RoutingStats(
        policy=router.policy,
        stealing=router.stealing,
        num_routed=num_routed,
        local_batches=len(completed) - len(steals),
        stolen_batches=len(steals),
        route_network_s=route_network_s,
        steal_network_s=steal_network_s,
        queue_peaks=tuple(queue_peaks),
        queue_requests=tuple(np.bincount(queue_of_request, minlength=num_queues).tolist()),
        queue_wait_s=tuple(
            np.bincount(
                queue_of_request, weights=requests.wait_s, minlength=num_queues
            ).tolist()
        ),
        steals=steals,
    )


def _per_chip_busy(batches: BatchTable, num_chips: int) -> tuple[float, ...]:
    return tuple(
        np.bincount(batches.chip, weights=batches.service_s, minlength=num_chips)
        if len(batches)
        else np.zeros(num_chips)
    )


class ServingSimulator:
    """Event-driven executor of a request stream over a chip fleet.

    ``faults``, ``retry``, ``admission``, ``autoscaler`` and ``router`` are
    all optional and combine freely (see the module docstring).  Passing
    any of ``faults``/``retry``/``admission`` turns on the availability
    ledger; ``retry`` then defaults to a stock
    :class:`~repro.serving.faults.RetryPolicy` and ``admission`` to
    :data:`~repro.serving.faults.NO_ADMISSION`.

    After every run :attr:`last_profile` holds the run's hot-path counters
    (events scheduled/popped, dispatch sweeps, wall time); when the global
    :data:`~repro.serving.profiling.PROFILER` is enabled the counters are
    also collected there.
    """

    def __init__(
        self,
        fleet: ChipFleet,
        batcher: DynamicBatcher = NO_BATCHING,
        faults: FaultInjector | None = None,
        retry: RetryPolicy | None = None,
        admission: AdmissionController | None = None,
        autoscaler: Autoscaler | None = None,
        router: Router | None = None,
    ) -> None:
        self.fleet = fleet
        self.batcher = batcher
        self.faults = faults
        self.retry = retry
        self.admission = admission
        self.autoscaler = autoscaler
        self.router = router
        self.last_profile: RunProfile | None = None

    @property
    def fault_aware(self) -> bool:
        """Whether this simulator runs the fault/shedding machinery."""
        return (
            self.faults is not None
            or self.retry is not None
            or self.admission is not None
        )

    def run(self, requests: Sequence[Request], label: str = "serving") -> ServingReport:
        """Serve every request and report the completed run.

        ``requests`` need not be sorted; they are served in arrival order
        (ties broken by the given order, which arrival generators emit by
        index).  ``label`` names the run in profiler output.
        """
        if not requests:
            raise ValueError("cannot simulate an empty request stream")
        ordered = sorted(requests, key=lambda r: r.arrival_s)
        return self._profiled(label, ordered)

    def run_closed_loop(
        self, clients: ClosedLoopClients, num_requests: int, label: str = "closed-loop"
    ) -> ServingReport:
        """Serve ``num_requests`` issued by closed-loop clients.

        Arrivals react to the system (think -> request -> completion,
        shed or abandonment -> think); requests are issued with
        consecutive indices until ``num_requests`` have entered, after
        which clients retire.  With one chip, a FIFO batcher and no hooks
        this is the machine-repair closed queue the theory module
        cross-validates.
        """
        require_positive_int(num_requests, "num_requests")
        return self._profiled(label, (), clients, num_requests)

    def _profiled(
        self,
        label: str,
        ordered: Sequence[Request],
        clients: ClosedLoopClients | None = None,
        num_requests: int = 0,
    ) -> ServingReport:
        counters = self.fleet.pricing_counters()
        start = _time.perf_counter()
        report, loop, dispatch_calls = self._simulate(ordered, clients, num_requests)
        wall_s = _time.perf_counter() - start
        deltas = [
            after - before
            for after, before in zip(self.fleet.pricing_counters(), counters)
        ]
        routing = report.routing
        self.last_profile = RunProfile(
            label,
            loop.events_scheduled,
            loop.events_popped,
            dispatch_calls,
            report.num_requests,
            report.num_batches,
            wall_s,
            *deltas,
            routed_requests=routing.num_routed if routing else 0,
            stolen_batches=routing.stolen_batches if routing else 0,
            peak_queue_depth=routing.peak_queue_depth if routing else 0,
        )
        PROFILER.record(self.last_profile)
        return report

    def _simulate(
        self,
        ordered: Sequence[Request],
        clients: ClosedLoopClients | None = None,
        num_requests: int = 0,
    ) -> tuple[ServingReport, EventLoop, int]:
        """The serving event loop.

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
        pop = loop.pop
        events = loop.heap  # peeked by the merge below, popped through pop()
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
        # routed: indexes whose maturity timer fired while they waited,
        # pruned of those that left whenever it outgrows the queues
        overdue: set[int] = set()
        # routed shedding: a lower bound on every queue head's expiry
        # (arrival_s + deadline_s), so no head is past its deadline while
        # time <= expiry_floor_s; _INF without shedding
        expiry_floor_s = _INF
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

        # routing: the hops over links of one latency land in the order they
        # were sent, so each distinct latency has one FIFO lane of
        # (land_s, _HOP, arrival order, request, queue) entries
        lanes: tuple[deque, ...] = ()
        if routed:
            route = front_end(router, fleet, batcher.max_batch_size, queues, in_service)
            links = router.network.links(num_chips)
            lane_of_latency = {hop: deque() for hop in links if hop > 0.0}
            lanes = tuple(lane_of_latency.values())
            lane_of = [lane_of_latency.get(hop) for hop in links]
            steal_latency_s = router.network.steal_latency_s
            stealing = router.stealing
        route_network_s = 0.0

        # the merge's sources besides the heap, as (time, kind, ...) keys:
        # the cursor's next open-loop arrival and the next hop to land,
        # each _LAST when there is none (module docstring)
        cursor = 0
        num_ordered = len(ordered)
        arrival_key = (ordered[0].arrival_s, ARRIVE) if ordered else _LAST
        hop_key: tuple = _LAST
        next_lane: deque | None = None  # the lane hop_key heads

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

        def sweep(time: float) -> None:
            """Run a plain sweep now if nothing else is due at ``time``, else schedule it."""
            nonlocal dispatch_calls
            if (events and events[0][0] <= time) or arrival_key[0] <= time or hop_key[0] <= time:
                schedule(time, _DISPATCH)
            else:
                dispatch_calls += 1
                dispatch(time, None)

        def land(time: float, request: Request, order: int, queue: int) -> None:
            """Join a queue: at arrival, or when the network hop completes."""
            nonlocal backlog, queue_peak, expiry_floor_s
            heap = queues[queue]
            heappush(heap, (queue_key(request, order), order, request))
            backlog += 1
            if backlog > queue_peak:
                queue_peak = backlog
            if len(heap) > queue_peaks[queue]:
                queue_peaks[queue] = len(heap)
            queued.add(request.index)
            mature_s = request.arrival_s + max_wait_s
            head = heap[0][2]
            # a plain sweep only if one could act now (module docstring)
            if routed:
                if shedding:  # the landed request may head its queue
                    expiry_s = request.arrival_s + deadline_s
                    if expiry_s < expiry_floor_s:
                        expiry_floor_s = expiry_s
                if num_idle and (
                    mature_s <= time
                    or (
                        (stealing or (idle[queue] and online[queue]))
                        and ready(len(heap), time - head.arrival_s)
                    )
                    or (overdue and not overdue.isdisjoint(queued))
                    or time > expiry_floor_s  # a head may have expired
                ):
                    sweep(time)
            elif (num_idle and ready(len(heap), time - head.arrival_s)) or (
                shedding and time > head.arrival_s + deadline_s
            ):
                sweep(time)
            if timed_wait:
                # the maturity timer is the forced sweep itself, due at once
                # for a request already mature (a retry, or a hop of
                # max_wait_s or more)
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
            nonlocal backlog, num_idle, seq, expiry_floor_s
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
                    if time > expiry_floor_s:
                        # shed every expired head, then bound the heads left
                        expiry_floor_s = _INF
                        for heap in queues:
                            while heap and time > heap[0][2].arrival_s + deadline_s:
                                backlog -= 1
                                shed_queued(heappop(heap)[2], time)
                            if heap:
                                expiry_floor_s = min(
                                    expiry_floor_s, heap[0][2].arrival_s + deadline_s
                                )
                    queue = -1
                    best = _LAST
                    for q, heap in enumerate(queues):
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
                if shedding and routed and heap:
                    expiry_s = heap[0][2].arrival_s + deadline_s  # the queue's new head
                    if expiry_s < expiry_floor_s:
                        expiry_floor_s = expiry_s
                if not members:
                    continue  # everything popped was expired; re-evaluate
                size = len(members)
                service = batch_latency_s(chip, size, seq_len)
                if not 0.0 <= service < _INF:
                    raise ValueError(
                        f"chip {chip}: a batch of {size} at seq_len {seq_len} "
                        f"must take a finite, non-negative time, got {service}"
                    )
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
        if session is not None:
            for chip in all_chips:
                schedule(session.time_to_failure_s(chip), _FAIL, chip)

        # three sources merged in (time, kind) order: the heap, the arrival
        # cursor and the hop lanes (module docstring)
        while True:
            if hop_key < arrival_key:
                if events and events[0] < hop_key:
                    time, kind, data = pop()
                else:
                    # the next hop lands; the earliest lane head is next
                    time, _, order, request, queue = next_lane.popleft()
                    hop_key = _LAST
                    for lane in lanes:
                        if lane and lane[0] < hop_key:
                            hop_key = lane[0]
                            next_lane = lane
                    land(time, request, order, queue)
                    continue
            elif events and events[0] < arrival_key:
                time, kind, data = pop()
            elif cursor < num_ordered:
                request = ordered[cursor]
                cursor += 1
                arrival_key = (ordered[cursor].arrival_s, ARRIVE) if cursor < num_ordered else _LAST
                time, kind, data = request.arrival_s, ARRIVE, (request,)
            else:
                break
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
                if hop == 0.0:
                    # zero-latency link: land within the arrival event
                    land(time, request, order, queue)
                    continue
                route_network_s += hop
                entry = (time + hop, _HOP, order, request, queue)
                lane = lane_of[queue]
                lane.append(entry)
                if entry < hop_key:
                    hop_key = entry
                    next_lane = lane
            elif kind == _DISPATCH:
                # a maturity timer forces its sweep, and is moot once its
                # request has left the queue
                forced = data[0] if data else None
                if forced is not None and forced not in queued:
                    continue
                dispatch_calls += 1
                dispatch(time, forced)
                if routed and forced in queued:
                    # its timer fired and it still waits; pruning keeps the
                    # set no larger than the queues
                    overdue.add(forced)
                    if len(overdue) > backlog:
                        overdue.intersection_update(queued)
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
                if backlog:
                    sweep(time)
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
                        if routed and (
                            queues[chip]
                            or (lane_of[chip] and any(hop[4] == chip for hop in lane_of[chip]))
                        ):
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
