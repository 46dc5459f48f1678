"""The serving report: what a load test of the simulated fleet produces.

Everything a capacity planner asks of a serving system in one frozen
result object — sustained throughput, mean/tail latency (p50/p95/p99 via
:func:`repro.utils.stats.percentile`), queueing behaviour, per-chip
utilization, batching efficacy and energy per query — plus the raw
per-request and per-batch records the property tests and Little's-law
cross-checks consume.

Storage is *columnar*: per-request, per-batch and per-steal data live in
parallel numpy arrays (:class:`RequestTable`, :class:`BatchTable`,
:class:`StealTable`), not tuples of Python record objects, so
million-request reports summarize in vectorized time, pickle compactly
across process boundaries, and merge cheaply.  Each table is declared by
its record dataclass (:class:`RequestRecord`, :class:`BatchRecord`,
:class:`StealRecord`): the record's fields are the table's columns, in
order, with their int or float dtype.  Indexing a table with an int
gives one record, a slice gives a table of the same type, and iterating
gives every record.

:meth:`ServingReport.merge` folds the per-shard reports of a sharded run
into one fleet-wide report: latency samples pooled exactly (full sample
concatenation, so merged percentiles equal percentiles of the pooled
samples), energy/drop/retry/failure ledgers summed, per-chip utilization
concatenated with shard-local chip and batch ids shifted into one
fleet-wide numbering.

Fault-injected runs (:mod:`repro.serving.faults`) extend the report with
an availability ledger: chip failures and their downtime, retries, shed
and abandoned requests, goodput against offered traffic, and the wasted
energy of batches lost mid-service.  ``faults_enabled`` is stored, since
a run given only a retry or admission policy records nothing else that
tells it from a healthy run; every other section prints when the run's
own data calls for it (SLO tags, executed-tier batches, autoscaler sleep
powers, routing stats).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Iterator, Sequence

import numpy as np

from repro.utils.stats import percentile

__all__ = [
    "RequestRecord",
    "BatchRecord",
    "RequestTable",
    "BatchTable",
    "DropRecord",
    "RetryRecord",
    "FailureRecord",
    "ScaleEvent",
    "StealRecord",
    "StealTable",
    "RoutingStats",
    "ServingReport",
]


@dataclass(frozen=True, slots=True)
class RequestRecord:
    """Timestamps of one request's trip through the serving system.

    ``attempts`` counts failed service attempts before the completing one:
    0 for every request of a healthy run.  ``slo_class`` and ``deadline_s``
    carry the request's SLO tag (class 0 with an infinite relative
    deadline for untagged traffic, so pre-SLO runs are unchanged).
    """

    index: int
    arrival_s: float
    dispatch_s: float
    completion_s: float
    chip: int
    batch_index: int
    batch_size: int
    seq_len: int
    attempts: int = 0
    slo_class: int = 0
    deadline_s: float = float("inf")

    @property
    def wait_s(self) -> float:
        """Time spent queued before a chip started the request's batch."""
        return self.dispatch_s - self.arrival_s

    @property
    def latency_s(self) -> float:
        """End-to-end request latency (arrival to completion)."""
        return self.completion_s - self.arrival_s

    @property
    def met_deadline(self) -> bool:
        """Whether the request completed within its own relative deadline."""
        return self.latency_s <= self.deadline_s


@dataclass(frozen=True, slots=True)
class BatchRecord:
    """One dispatched batch and what serving it cost.

    ``tier`` is the fidelity tier that priced the batch — 0 for the
    analytic cache (every batch of an untiered fleet), 1 for an
    executed-schedule template resample under a
    :class:`~repro.serving.fleet.TieredServiceModel`.
    """

    index: int
    chip: int
    dispatch_s: float
    completion_s: float
    size: int
    seq_len: int
    energy_j: float
    tier: int = 0

    @property
    def service_s(self) -> float:
        """Chip occupancy of the batch."""
        return self.completion_s - self.dispatch_s


#: Column dtype of each record field type.
_DTYPES = {"int": np.int64, "float": np.float64}


class _Table:
    """Columnar store of one record dataclass: one numpy array per field.

    A subclass names its :attr:`record`, whose fields are the only
    declaration of the table's columns: their names, their order and
    their dtype (``int`` fields are int64 columns, ``float`` fields
    float64).  Tables are built by column name, every column the same
    length.  An int index materializes one record, a slice is the table
    of those rows, and iterating materializes every record; bulk
    consumers read the column arrays directly.
    """

    record: type
    _dtypes: dict[str, type]

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls._dtypes = {f.name: _DTYPES[f.type] for f in fields(cls.record)}

    def __init__(self, **columns) -> None:
        kind = type(self).__name__
        for name in columns:
            if name not in self._dtypes:
                raise ValueError(f"{kind} has no column {name!r}")
        length = None
        for name, dtype in self._dtypes.items():
            if name not in columns:
                raise ValueError(f"{kind} is missing column {name!r}")
            column = np.atleast_1d(np.asarray(columns[name], dtype=dtype))
            if length is None:
                length = column.size
            elif column.size != length:
                raise ValueError(
                    f"{kind} column {name!r} has {column.size} entries for "
                    f"{length} rows"
                )
            setattr(self, name, column)

    def _columns(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in self._dtypes}

    @classmethod
    def empty(cls) -> "_Table":
        return cls(**{name: [] for name in cls._dtypes})

    @classmethod
    def concatenate(cls, tables: Sequence["_Table"]) -> "_Table":
        return cls(
            **{
                name: np.concatenate([getattr(t, name) for t in tables])
                for name in cls._dtypes
            }
        )

    def shifted(self, **offsets: int) -> "_Table":
        """This table with ``offsets[name]`` added to each named column.

        Every other column is the original array, not a copy, so shifting
        the id columns of a large table allocates only those columns.
        """
        columns = self._columns()
        for name, offset in offsets.items():
            columns[name] = columns[name] + offset
        return type(self)(**columns)

    def __len__(self) -> int:
        first = next(iter(self._dtypes))  # every column has the same length
        return getattr(self, first).size

    def __getitem__(self, i):
        if isinstance(i, slice):
            return type(self)(
                **{name: column[i] for name, column in self._columns().items()}
            )
        return self.record(*(column[i].item() for column in self._columns().values()))

    def __iter__(self) -> Iterator:
        return map(self.record, *(column.tolist() for column in self._columns().values()))

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return all(
            np.array_equal(column, getattr(other, name))
            for name, column in self._columns().items()
        )


class RequestTable(_Table):
    """Columnar store of completed requests (:class:`RequestRecord` columns)."""

    record = RequestRecord

    @property
    def latency_s(self) -> np.ndarray:
        """End-to-end latencies, one per completed request."""
        return self.completion_s - self.arrival_s

    @property
    def wait_s(self) -> np.ndarray:
        """Queueing delays before dispatch, one per completed request."""
        return self.dispatch_s - self.arrival_s

    @property
    def met_deadline(self) -> np.ndarray:
        """Boolean per request: completed within its own relative deadline.

        Untagged requests carry an infinite deadline and always count as
        met, so overall attainment over mixed traffic is well defined.
        """
        return self.latency_s <= self.deadline_s


class BatchTable(_Table):
    """Columnar store of dispatched batches (:class:`BatchRecord` columns)."""

    record = BatchRecord

    @property
    def service_s(self) -> np.ndarray:
        """Chip occupancy per batch."""
        return self.completion_s - self.dispatch_s


#: Reasons a request can leave the system without completing.
DROP_REASONS = ("queue_full", "deadline", "retries_exhausted")


@dataclass(frozen=True)
class DropRecord:
    """One request leaving the system unserved (shed or abandoned).

    ``reason`` is one of :data:`DROP_REASONS` — ``"queue_full"`` (bounded
    queue rejected the arrival), ``"deadline"`` (expired before service or
    before a viable retry) or ``"retries_exhausted"`` (lost its last
    allowed attempt to a chip failure).
    """

    index: int
    time_s: float
    reason: str
    attempts: int = 0

    def __post_init__(self) -> None:
        if self.reason not in DROP_REASONS:
            raise ValueError(
                f"reason must be one of {DROP_REASONS}, got {self.reason!r}"
            )


@dataclass(frozen=True)
class RetryRecord:
    """One lost request re-entering the queue after a chip failure."""

    index: int
    attempt: int
    failure_s: float
    reenqueue_s: float

    @property
    def backoff_s(self) -> float:
        """Back-off the request spent outside the queue."""
        return self.reenqueue_s - self.failure_s


@dataclass(frozen=True)
class FailureRecord:
    """One chip failure–repair cycle and what it cost.

    ``repaired_s`` is when the chip re-entered service (failure time plus
    detection and the tile-bank reprogramming); ``lost_requests`` is the
    size of the in-flight batch the failure killed (0 if the chip was
    idle) and ``wasted_energy_j`` the energy that batch had already burned.
    """

    chip: int
    fail_s: float
    repaired_s: float
    lost_requests: int = 0
    wasted_energy_j: float = 0.0


#: Directions an autoscaler can move a chip.
SCALE_ACTIONS = ("sleep", "wake")


@dataclass(frozen=True)
class ScaleEvent:
    """One autoscaler decision acting on one chip.

    ``time_s`` is when the decision was taken; ``ready_s`` when the chip
    actually reached the target state (sleep power after the drain, or
    serving-ready after the wake ramp plus array re-bias).  ``energy_j``
    is the transition's energy — wake-up for ``"wake"`` events, 0 for
    sleeps.
    """

    chip: int
    time_s: float
    action: str
    ready_s: float
    energy_j: float = 0.0

    def __post_init__(self) -> None:
        if self.action not in SCALE_ACTIONS:
            raise ValueError(
                f"action must be one of {SCALE_ACTIONS}, got {self.action!r}"
            )
        if self.ready_s < self.time_s:
            raise ValueError(
                f"ready_s {self.ready_s} precedes the decision at {self.time_s}"
            )


@dataclass(frozen=True)
class StealRecord:
    """One work-steal: an idle chip served a batch from a peer's queue.

    ``queue`` is the home queue the batch was routed to, ``chip`` the
    peer that actually served it, ``decided_s`` when the steal was
    decided — the batch dispatches one steal network hop later.
    """

    batch_index: int
    queue: int
    chip: int
    decided_s: float

    def __post_init__(self) -> None:
        if self.queue == self.chip:
            raise ValueError(f"steal from queue {self.queue} to its own chip")


class StealTable(_Table):
    """Columnar store of a routed run's steals (:class:`StealRecord` columns)."""

    record = StealRecord


@dataclass(frozen=True)
class RoutingStats:
    """Per-queue and per-policy ledger of a multi-queue routed run.

    ``queue_peaks`` / ``queue_requests`` / ``queue_wait_s`` are per-queue
    (one slot per chip): the deepest the queue ever got, the requests
    served *from* it (locally or stolen) in completed batches, and their
    summed arrival-to-dispatch waits.  ``route_network_s`` and
    ``steal_network_s`` total the front-end→chip and chip→chip hop time
    charged; ``steals`` holds one :class:`StealRecord` per steal, in
    batch order.
    """

    policy: str
    stealing: bool
    num_routed: int
    local_batches: int
    stolen_batches: int
    route_network_s: float
    steal_network_s: float
    queue_peaks: tuple[int, ...]
    queue_requests: tuple[int, ...]
    queue_wait_s: tuple[float, ...]
    steals: StealTable = field(default_factory=StealTable.empty)

    @property
    def num_queues(self) -> int:
        return len(self.queue_peaks)

    @property
    def peak_queue_depth(self) -> int:
        """Deepest any single chip queue ever got."""
        return max(self.queue_peaks, default=0)

    @property
    def stolen_fraction(self) -> float:
        """Fraction of dispatched batches an idle peer stole."""
        total = self.local_batches + self.stolen_batches
        return self.stolen_batches / total if total else 0.0

    def queue_mean_wait_s(self, queue: int) -> float:
        """Mean arrival→dispatch wait of requests routed to one queue."""
        count = self.queue_requests[queue]
        return self.queue_wait_s[queue] / count if count else 0.0

    @classmethod
    def merge(
        cls, parts: Sequence[tuple["RoutingStats", int, int]]
    ) -> "RoutingStats":
        """Fold per-shard stats; ``parts`` are (stats, chip/queue offset,
        batch offset) in shard order — queues renumber with their chips."""
        policies = {(s.policy, s.stealing) for s, _, _ in parts}
        if len(policies) > 1:
            raise ValueError(
                f"cannot merge routing stats with differing policies: "
                f"{sorted(policies)}"
            )
        steals = StealTable.concatenate(
            [
                stats.steals.shifted(
                    batch_index=batch_offset, queue=chip_offset, chip=chip_offset
                )
                for stats, chip_offset, batch_offset in parts
            ]
        )
        first = parts[0][0]
        return cls(
            policy=first.policy,
            stealing=first.stealing,
            num_routed=sum(s.num_routed for s, _, _ in parts),
            local_batches=sum(s.local_batches for s, _, _ in parts),
            stolen_batches=sum(s.stolen_batches for s, _, _ in parts),
            route_network_s=sum(s.route_network_s for s, _, _ in parts),
            steal_network_s=sum(s.steal_network_s for s, _, _ in parts),
            queue_peaks=tuple(p for s, _, _ in parts for p in s.queue_peaks),
            queue_requests=tuple(r for s, _, _ in parts for r in s.queue_requests),
            queue_wait_s=tuple(w for s, _, _ in parts for w in s.queue_wait_s),
            steals=steals,
        )


@dataclass(frozen=True, eq=False)
class ServingReport:
    """Result of one serving simulation run.

    ``chip_idle_power_w`` is each chip's standby power; the report charges
    it over the chip's un-occupied share of the makespan, so
    :attr:`energy_per_query_j` stays honest at low load (a nearly idle
    fleet still burns leakage).  The active-only figure survives as
    :attr:`active_energy_per_query_j`.  An empty tuple (the default) means
    no idle power was modelled.
    """

    num_chips: int
    requests: RequestTable
    batches: BatchTable
    chip_busy_s: tuple[float, ...]
    queue_peak: int
    chip_idle_power_w: tuple[float, ...] = ()
    shed: tuple[DropRecord, ...] = ()
    abandoned: tuple[DropRecord, ...] = ()
    retries: tuple[RetryRecord, ...] = ()
    failures: tuple[FailureRecord, ...] = ()
    deadline_s: float | None = None
    faults_enabled: bool = False
    num_shards: int = 1
    scale_events: tuple[ScaleEvent, ...] = ()
    chip_sleep_s: tuple[float, ...] = ()
    chip_sleep_power_w: tuple[float, ...] = ()
    routing: RoutingStats | None = None

    # ------------------------------------------------------------------ #
    # merging (sharded runs)
    # ------------------------------------------------------------------ #
    @classmethod
    def merge(cls, reports: Sequence["ServingReport"]) -> "ServingReport":
        """Fold per-shard reports into one fleet-wide report.

        Shard-local chip ids are offset into one fleet-wide numbering (in
        the given order), batch indices likewise, latency samples are
        pooled exactly (merged percentiles equal percentiles over the
        union of samples), and the energy/drop/retry/failure ledgers
        concatenate.  ``queue_peak`` is the largest *per-shard* peak —
        shards queue independently, so no fleet-wide simultaneous depth
        exists to report.  All shards must agree on ``deadline_s``.
        """
        reports = list(reports)
        if not reports:
            raise ValueError("cannot merge an empty sequence of reports")
        if len(reports) == 1:
            return replace(reports[0])
        deadlines = {r.deadline_s for r in reports}
        if len(deadlines) > 1:
            raise ValueError(
                f"cannot merge reports with differing deadlines: {sorted(deadlines, key=str)}"
            )
        routed = [r.routing is not None for r in reports]
        if any(routed) and not all(routed):
            raise ValueError("cannot merge routed and unrouted reports")
        request_tables: list[RequestTable] = []
        batch_tables: list[BatchTable] = []
        failures: list[FailureRecord] = []
        scale_events: list[ScaleEvent] = []
        routing_parts: list[tuple[RoutingStats, int, int]] = []
        chip_offset = 0
        batch_offset = 0
        for report in reports:
            request_tables.append(
                report.requests.shifted(chip=chip_offset, batch_index=batch_offset)
            )
            batch_tables.append(
                report.batches.shifted(index=batch_offset, chip=chip_offset)
            )
            failures.extend(
                replace(f, chip=f.chip + chip_offset) for f in report.failures
            )
            scale_events.extend(
                replace(e, chip=e.chip + chip_offset) for e in report.scale_events
            )
            if report.routing is not None:
                routing_parts.append((report.routing, chip_offset, batch_offset))
            chip_offset += report.num_chips
            batch_offset += len(report.batches)
        return cls(
            num_chips=chip_offset,
            requests=RequestTable.concatenate(request_tables),
            batches=BatchTable.concatenate(batch_tables),
            chip_busy_s=tuple(
                busy for report in reports for busy in report.chip_busy_s
            ),
            queue_peak=max(r.queue_peak for r in reports),
            chip_idle_power_w=tuple(
                power for report in reports for power in report.chip_idle_power_w
            ),
            shed=tuple(drop for r in reports for drop in r.shed),
            abandoned=tuple(drop for r in reports for drop in r.abandoned),
            retries=tuple(retry for r in reports for retry in r.retries),
            failures=tuple(failures),
            deadline_s=reports[0].deadline_s,
            faults_enabled=any(r.faults_enabled for r in reports),
            num_shards=sum(r.num_shards for r in reports),
            scale_events=tuple(scale_events),
            chip_sleep_s=tuple(
                sleep for report in reports for sleep in report.chip_sleep_s
            ),
            chip_sleep_power_w=tuple(
                power for report in reports for power in report.chip_sleep_power_w
            ),
            routing=RoutingStats.merge(routing_parts) if routing_parts else None,
        )

    # ------------------------------------------------------------------ #
    # volume and rates
    # ------------------------------------------------------------------ #
    @property
    def num_requests(self) -> int:
        """Requests that completed service."""
        return len(self.requests)

    @property
    def makespan_s(self) -> float:
        """First arrival to last completion."""
        if not len(self.requests):
            return 0.0
        return float(self.requests.completion_s.max() - self.requests.arrival_s.min())

    @property
    def offered_rate_rps(self) -> float:
        """Mean arrival rate observed over the run."""
        if len(self.requests) < 2:
            return 0.0
        arrivals = self.requests.arrival_s
        span = float(arrivals.max() - arrivals.min())
        return (len(self.requests) - 1) / span if span > 0 else float("inf")

    @property
    def throughput_rps(self) -> float:
        """Completed requests per second of makespan."""
        span = self.makespan_s
        return self.num_requests / span if span > 0 else float("inf")

    # ------------------------------------------------------------------ #
    # latency and queueing
    # ------------------------------------------------------------------ #
    def latency_percentile_s(self, q: float) -> float:
        """Interpolated end-to-end latency percentile.

        Computed over *completed* requests — under load shedding this is
        the completion-conditional percentile (NaN with no completions).
        """
        if not len(self.requests):
            return float("nan")
        return float(percentile(self.requests.latency_s, q))

    @property
    def p50_latency_s(self) -> float:
        """Median end-to-end latency."""
        return self.latency_percentile_s(50.0)

    @property
    def p95_latency_s(self) -> float:
        """95th-percentile end-to-end latency."""
        return self.latency_percentile_s(95.0)

    @property
    def p99_latency_s(self) -> float:
        """99th-percentile end-to-end latency."""
        return self.latency_percentile_s(99.0)

    @property
    def mean_latency_s(self) -> float:
        """Mean end-to-end latency (completed requests; NaN with none)."""
        if not len(self.requests):
            return float("nan")
        return float(np.mean(self.requests.latency_s))

    @property
    def mean_wait_s(self) -> float:
        """Mean queueing delay before dispatch (completed requests)."""
        if not len(self.requests):
            return float("nan")
        return float(np.mean(self.requests.wait_s))

    @property
    def mean_queue_depth(self) -> float:
        """Time-averaged number of queued (not yet dispatched) requests.

        By Little's law applied to the waiting room this is the summed
        waiting time divided by the observation window.
        """
        span = self.makespan_s
        if span <= 0:
            return 0.0
        return float(np.sum(self.requests.wait_s)) / span

    # ------------------------------------------------------------------ #
    # batching, occupancy and energy
    # ------------------------------------------------------------------ #
    @property
    def num_batches(self) -> int:
        """Batches dispatched over the run."""
        return len(self.batches)

    @property
    def mean_batch_size(self) -> float:
        """Mean requests per dispatched batch."""
        if not len(self.batches):
            return 0.0
        return self.num_requests / self.num_batches

    def chip_utilization(self, chip: int) -> float:
        """Busy fraction of one chip over the makespan."""
        span = self.makespan_s
        return self.chip_busy_s[chip] / span if span > 0 else 0.0

    @property
    def mean_utilization(self) -> float:
        """Mean busy fraction across the fleet."""
        span = self.makespan_s
        if span <= 0:
            return 0.0
        return sum(self.chip_busy_s) / (self.num_chips * span)

    @property
    def energy_j(self) -> float:
        """Total active energy spent serving all batches."""
        return float(np.sum(self.batches.energy_j))

    def _chip_sleep(self, chip: int) -> float:
        return self.chip_sleep_s[chip] if chip < len(self.chip_sleep_s) else 0.0

    @property
    def idle_energy_j(self) -> float:
        """Leakage / standby energy over the fleet's un-occupied awake time.

        Each chip pays its idle power for the share of the makespan it was
        neither serving a batch nor parked in deep sleep by the autoscaler
        (sleep time is charged separately at the sleep power); zero when
        no idle power was modelled.
        """
        if not self.chip_idle_power_w:
            return 0.0
        span = self.makespan_s
        return sum(
            power * max(0.0, span - busy - self._chip_sleep(chip))
            for chip, (power, busy) in enumerate(
                zip(self.chip_idle_power_w, self.chip_busy_s)
            )
        )

    @property
    def sleep_energy_j(self) -> float:
        """Residual energy of autoscaler-parked chips over their sleep time.

        Non-volatile tile banks retain state through sleep, so this is
        retention-level leakage — far below idle power, which is the whole
        point of scaling down.
        """
        return sum(
            power * sleep
            for power, sleep in zip(self.chip_sleep_power_w, self.chip_sleep_s)
        )

    @property
    def wake_energy_j(self) -> float:
        """Energy of the sleep-to-serving transitions the autoscaler triggered."""
        return sum(e.energy_j for e in self.scale_events)

    @property
    def wasted_energy_j(self) -> float:
        """Energy burned by in-flight batches that a chip failure killed."""
        return sum(f.wasted_energy_j for f in self.failures)

    @property
    def total_energy_j(self) -> float:
        """Active, idle, sleep and wake energy over the run, plus wasted work."""
        return (
            self.energy_j
            + self.idle_energy_j
            + self.sleep_energy_j
            + self.wake_energy_j
            + self.wasted_energy_j
        )

    @property
    def active_energy_per_query_j(self) -> float:
        """Active-only energy per completed request (the pre-idle-power figure)."""
        if not len(self.requests):
            return 0.0
        return self.energy_j / self.num_requests

    @property
    def energy_per_query_j(self) -> float:
        """Energy per completed request including idle/leakage power.

        The serving-side figure of merit: at high load it approaches the
        active-only figure, at low load the makespan's leakage dominates —
        which is exactly what a capacity planner needs to see.
        """
        if not len(self.requests):
            return 0.0
        return self.total_energy_j / self.num_requests

    # ------------------------------------------------------------------ #
    # availability, shedding and goodput (fault-injected runs)
    # ------------------------------------------------------------------ #
    @property
    def num_shed(self) -> int:
        """Requests rejected by admission control or deadline shedding."""
        return len(self.shed)

    @property
    def num_abandoned(self) -> int:
        """Requests lost to failures that exhausted retries or deadlines."""
        return len(self.abandoned)

    @property
    def num_retries(self) -> int:
        """Retry re-entries after chip failures (one request may retry twice)."""
        return len(self.retries)

    @property
    def num_offered(self) -> int:
        """Every request that entered the system: completed + shed + abandoned."""
        return self.num_requests + self.num_shed + self.num_abandoned

    @property
    def completion_fraction(self) -> float:
        """Completed share of offered traffic (1.0 for a healthy run)."""
        offered = self.num_offered
        return self.num_requests / offered if offered else 0.0

    @property
    def num_good(self) -> int:
        """Completions that met their own SLO deadline and the retry deadline.

        Untagged requests carry an infinite SLO deadline, and the retry
        deadline applies only when one is set — so a run with neither counts
        every completion and goodput equals throughput.
        """
        good = self.requests.met_deadline
        if self.deadline_s is not None:
            good = good & (self.requests.latency_s <= self.deadline_s)
        return int(np.count_nonzero(good))

    @property
    def goodput_rps(self) -> float:
        """Good completions (:attr:`num_good`) per second of makespan."""
        span = self.makespan_s
        return self.num_good / span if span > 0 else float("inf")

    # ------------------------------------------------------------------ #
    # SLO classes and deadlines (per-request tags)
    # ------------------------------------------------------------------ #
    @property
    def slo_enabled(self) -> bool:
        """Whether any completed request carried an SLO tag."""
        if not len(self.requests):
            return False
        return bool(
            np.any(self.requests.slo_class != 0)
            or np.any(np.isfinite(self.requests.deadline_s))
        )

    @property
    def slo_classes(self) -> tuple[int, ...]:
        """Distinct SLO classes among completed requests, ascending."""
        if not len(self.requests):
            return ()
        return tuple(int(c) for c in np.unique(self.requests.slo_class))

    def _class_mask(self, slo_class: int | None) -> np.ndarray:
        if slo_class is None:
            return np.ones(len(self.requests), dtype=bool)
        return self.requests.slo_class == slo_class

    def num_in_class(self, slo_class: int) -> int:
        """Completed requests tagged with one SLO class."""
        return int(np.count_nonzero(self._class_mask(slo_class)))

    def class_latency_percentile_s(self, slo_class: int | None, q: float) -> float:
        """Latency percentile within one class (``None`` pools all classes)."""
        latencies = self.requests.latency_s[self._class_mask(slo_class)]
        if latencies.size == 0:
            return float("nan")
        return float(percentile(latencies, q))

    def num_deadline_misses(self, slo_class: int | None = None) -> int:
        """Completed requests that overran their own relative deadline."""
        mask = self._class_mask(slo_class)
        return int(np.count_nonzero(mask & ~self.requests.met_deadline))

    def deadline_attainment(self, slo_class: int | None = None) -> float:
        """Fraction of completions meeting their own deadline (1.0 with none).

        Per-request: each completion is judged against the deadline it
        arrived with, so mixed-SLO traffic has one well-defined overall
        figure (untagged requests carry ``inf`` and always count as met).
        """
        total = int(np.count_nonzero(self._class_mask(slo_class)))
        if total == 0:
            return 1.0
        return 1.0 - self.num_deadline_misses(slo_class) / total

    # ------------------------------------------------------------------ #
    # fidelity tiers (tiered service models)
    # ------------------------------------------------------------------ #
    @property
    def tiering_enabled(self) -> bool:
        """Whether any batch was priced off the executed-schedule tier.

        Derived from the tier column itself, so merged, pickled and legacy
        reports all agree — and tier-free runs keep their report text
        byte-identical to the pre-tiering format.
        """
        return bool(len(self.batches)) and bool(np.any(self.batches.tier != 0))

    @property
    def request_tier(self) -> np.ndarray:
        """Fidelity tier per completed request (its batch's tier)."""
        return self.batches.tier[self.requests.batch_index]

    def num_batches_in_tier(self, tier: int) -> int:
        """Dispatched batches priced by one fidelity tier."""
        return int(np.count_nonzero(self.batches.tier == tier))

    def num_requests_in_tier(self, tier: int) -> int:
        """Completed requests whose batch was priced by one fidelity tier."""
        return int(np.count_nonzero(self.request_tier == tier))

    @property
    def executed_batch_fraction(self) -> float:
        """Share of dispatched batches priced off executed templates."""
        if not len(self.batches):
            return 0.0
        return self.num_batches_in_tier(1) / len(self.batches)

    def tier_latency_percentile_s(self, tier: int, q: float) -> float:
        """End-to-end latency percentile within one fidelity tier."""
        latencies = self.requests.latency_s[self.request_tier == tier]
        if latencies.size == 0:
            return float("nan")
        return float(percentile(latencies, q))

    def format_tiers(self) -> str:
        """Printable fidelity-tier section of a tiered run."""
        executed_b = self.num_batches_in_tier(1)
        executed_r = self.num_requests_in_tier(1)
        lines = [
            f"fidelity tiers          : executed {executed_b}/{self.num_batches} "
            f"batches ({executed_r}/{self.num_requests} req, "
            f"{self.executed_batch_fraction * 100:.1f}% sampled)"
        ]
        analytic_p99 = self.tier_latency_percentile_s(0, 99.0)
        executed_p99 = self.tier_latency_percentile_s(1, 99.0)
        lines.append(
            f"per-tier p50/p99        : analytic "
            f"{self.tier_latency_percentile_s(0, 50.0) * 1e6:.1f} / "
            f"{analytic_p99 * 1e6:.1f} us, executed "
            f"{self.tier_latency_percentile_s(1, 50.0) * 1e6:.1f} / "
            f"{executed_p99 * 1e6:.1f} us"
        )
        return "\n".join(lines)

    # ------------------------------------------------------------------ #
    # autoscaling (power-state transitions)
    # ------------------------------------------------------------------ #
    @property
    def autoscale_enabled(self) -> bool:
        """Whether an autoscaler ran: only then are chip sleep powers recorded."""
        return bool(self.chip_sleep_power_w)

    @property
    def num_scale_events(self) -> int:
        """Autoscaler sleep/wake decisions over the run."""
        return len(self.scale_events)

    @property
    def num_wakes(self) -> int:
        """Sleep-to-serving transitions over the run."""
        return sum(1 for e in self.scale_events if e.action == "wake")

    @property
    def total_sleep_s(self) -> float:
        """Summed chip-seconds spent in deep sleep across the fleet."""
        return sum(self.chip_sleep_s)

    @property
    def mean_awake_chips(self) -> float:
        """Time-averaged number of chips not in deep sleep."""
        span = self.makespan_s
        if span <= 0:
            return float(self.num_chips)
        return self.num_chips - self.total_sleep_s / span

    @property
    def num_failures(self) -> int:
        """Chip failure events over the run."""
        return len(self.failures)

    @property
    def num_lost_batches(self) -> int:
        """Failures that killed an in-flight batch."""
        return sum(1 for f in self.failures if f.lost_requests > 0)

    def chip_downtime_s(self, chip: int) -> float:
        """Downtime of one chip clipped to the observation window.

        The window is the makespan (first arrival to last completion);
        repair intervals extending past the last completion only count
        their in-window share, so availability never goes negative from a
        repair that outlives the run.
        """
        if not len(self.requests):
            return 0.0
        start = float(self.requests.arrival_s.min())
        end = float(self.requests.completion_s.max())
        down = 0.0
        for f in self.failures:
            if f.chip == chip:
                down += max(0.0, min(f.repaired_s, end) - max(f.fail_s, start))
        return down

    @property
    def fleet_availability(self) -> float:
        """Mean healthy fraction across the fleet (1.0 for a healthy run)."""
        span = self.makespan_s
        if span <= 0:
            return 1.0
        down = sum(self.chip_downtime_s(chip) for chip in range(self.num_chips))
        return 1.0 - down / (self.num_chips * span)

    # ------------------------------------------------------------------ #
    # presentation
    # ------------------------------------------------------------------ #
    def summary(self) -> dict[str, float]:
        """Dictionary form used by the benchmark harness."""
        summary = {
            "num_requests": float(self.num_requests),
            "offered_rate_rps": self.offered_rate_rps,
            "throughput_rps": self.throughput_rps,
            "mean_latency_s": self.mean_latency_s,
            "p50_latency_s": self.p50_latency_s,
            "p95_latency_s": self.p95_latency_s,
            "p99_latency_s": self.p99_latency_s,
            "mean_wait_s": self.mean_wait_s,
            "mean_queue_depth": self.mean_queue_depth,
            "queue_peak": float(self.queue_peak),
            "mean_batch_size": self.mean_batch_size,
            "mean_utilization": self.mean_utilization,
            "energy_per_query_j": self.energy_per_query_j,
            "active_energy_per_query_j": self.active_energy_per_query_j,
        }
        if self.faults_enabled:
            summary.update(
                {
                    "num_offered": float(self.num_offered),
                    "num_shed": float(self.num_shed),
                    "num_abandoned": float(self.num_abandoned),
                    "num_retries": float(self.num_retries),
                    "num_failures": float(self.num_failures),
                    "goodput_rps": self.goodput_rps,
                    "completion_fraction": self.completion_fraction,
                    "fleet_availability": self.fleet_availability,
                    "wasted_energy_j": self.wasted_energy_j,
                }
            )
        if self.slo_enabled:
            summary["deadline_attainment"] = self.deadline_attainment()
            summary["num_deadline_misses"] = float(self.num_deadline_misses())
        if self.tiering_enabled:
            summary.update(
                {
                    "executed_batches": float(self.num_batches_in_tier(1)),
                    "executed_batch_fraction": self.executed_batch_fraction,
                    "analytic_p99_latency_s": self.tier_latency_percentile_s(0, 99.0),
                    "executed_p99_latency_s": self.tier_latency_percentile_s(1, 99.0),
                }
            )
        if self.autoscale_enabled:
            summary.update(
                {
                    "num_scale_events": float(self.num_scale_events),
                    "mean_awake_chips": self.mean_awake_chips,
                    "sleep_energy_j": self.sleep_energy_j,
                    "wake_energy_j": self.wake_energy_j,
                }
            )
        if self.routing_enabled:
            summary.update(
                {
                    "num_routed": float(self.routing.num_routed),
                    "stolen_batches": float(self.routing.stolen_batches),
                    "stolen_fraction": self.routing.stolen_fraction,
                    "peak_queue_depth": float(self.routing.peak_queue_depth),
                    "route_network_s": self.routing.route_network_s,
                    "steal_network_s": self.routing.steal_network_s,
                }
            )
        return summary

    @property
    def routing_enabled(self) -> bool:
        """Whether this run went through the multi-queue front-end router."""
        return self.routing is not None

    def format_routing(self) -> str:
        """Printable per-queue section of a routed run."""
        stats = self.routing
        stealing = "on" if stats.stealing else "off"
        peaks = " ".join(str(peak) for peak in stats.queue_peaks)
        waits = " ".join(
            f"{stats.queue_mean_wait_s(queue) * 1e6:.1f}"
            for queue in range(stats.num_queues)
        )
        return "\n".join(
            [
                f"routing policy          : {stats.policy} (stealing {stealing}, "
                f"{stats.num_routed} routed)",
                f"local / stolen batches  : {stats.local_batches} / "
                f"{stats.stolen_batches} ({stats.stolen_fraction * 100:.1f}% stolen)",
                f"network time            : route {stats.route_network_s * 1e3:.2f} ms, "
                f"steal {stats.steal_network_s * 1e3:.2f} ms",
                f"per-queue peak depth    : {peaks}",
                f"per-queue mean wait (us): {waits}",
            ]
        )

    def format_slo(self) -> str:
        """Printable per-class SLO section of a tagged run."""
        lines = []
        for slo_class in self.slo_classes:
            count = self.num_in_class(slo_class)
            p50 = self.class_latency_percentile_s(slo_class, 50.0)
            p99 = self.class_latency_percentile_s(slo_class, 99.0)
            attainment = self.deadline_attainment(slo_class)
            lines.append(
                f"class {slo_class} ({count} req)      : p50/p99 "
                f"{p50 * 1e6:.1f} / {p99 * 1e6:.1f} us, "
                f"attainment {attainment * 100:.1f}%"
            )
        lines.append(
            f"deadline attainment     : {self.deadline_attainment() * 100:.1f}% "
            f"({self.num_deadline_misses()} miss(es) overall)"
        )
        return "\n".join(lines)

    def format_autoscale(self) -> str:
        """Printable power-state section of an autoscaled run."""
        return "\n".join(
            [
                f"autoscaler              : {self.num_scale_events} transition(s), "
                f"{self.num_wakes} wake(s)",
                f"mean awake chips        : {self.mean_awake_chips:.2f} of "
                f"{self.num_chips} (slept {self.total_sleep_s:.1f} chip-s)",
                f"sleep / wake energy     : {self.sleep_energy_j * 1e3:.2f} mJ / "
                f"{self.wake_energy_j * 1e3:.2f} mJ",
            ]
        )

    def format_availability(self) -> str:
        """Printable availability section of a fault-injected run."""
        lines = [
            f"offered -> completed    : {self.num_offered} -> {self.num_requests} "
            f"(shed {self.num_shed}, abandoned {self.num_abandoned}, "
            f"retries {self.num_retries})",
            f"goodput                 : {self.goodput_rps:.1f} req/s "
            f"({self.completion_fraction * 100:.1f}% of offered completed)",
            f"fleet availability      : {self.fleet_availability * 100:.2f}% "
            f"({self.num_failures} failure(s), {self.num_lost_batches} lost "
            f"batch(es), wasted {self.wasted_energy_j * 1e3:.2f} mJ)",
        ]
        if self.failures:
            downtime = " ".join(
                f"{self.chip_downtime_s(chip) * 1e3:.1f}"
                for chip in range(self.num_chips)
            )
            lines.append(f"per-chip downtime (ms)  : {downtime}")
        return "\n".join(lines)

    def format_table(self) -> str:
        """Printable one-run summary."""
        lines = [
            f"requests / batches      : {self.num_requests} / {self.num_batches} "
            f"(mean batch {self.mean_batch_size:.2f})",
            f"offered / served rate   : {self.offered_rate_rps:.1f} / "
            f"{self.throughput_rps:.1f} req/s",
            f"latency p50/p95/p99     : {self.p50_latency_s * 1e6:.1f} / "
            f"{self.p95_latency_s * 1e6:.1f} / {self.p99_latency_s * 1e6:.1f} us",
            f"mean wait / queue depth : {self.mean_wait_s * 1e6:.1f} us / "
            f"{self.mean_queue_depth:.2f} (peak {self.queue_peak})",
            f"fleet utilization       : {self.mean_utilization * 100:.1f}% "
            f"over {self.num_chips} chip(s)",
            f"energy per query        : {self.energy_per_query_j * 1e6:.2f} uJ "
            f"(active only {self.active_energy_per_query_j * 1e6:.2f} uJ)",
        ]
        if self.routing_enabled:
            lines.append(self.format_routing())
        if self.tiering_enabled:
            lines.append(self.format_tiers())
        if self.slo_enabled:
            lines.append(self.format_slo())
        if self.autoscale_enabled:
            lines.append(self.format_autoscale())
        if self.faults_enabled:
            lines.append(self.format_availability())
        return "\n".join(lines)
