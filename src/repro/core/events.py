"""Discrete-event primitives of the serving simulator and the pipeline executor.

Two simulations in this codebase are, at heart, the same machine: the
request-level serving simulator (:mod:`repro.serving`) moves *requests and
batches* through a fleet of accelerator chips, and the attention-pipeline
executor (:mod:`repro.core.scheduler`) moves *rows* through stages of tile
groups and softmax engines.  Both need pools of servers with per-server
speed factors and busy-time bookkeeping; the serving simulator also needs
a heap of timed events with deterministic tie-breaking.  The pipeline
executor solves each of its FIFO stages by recurrence instead of running
an event loop, with the loop's tie rules (``tests/core/test_pipeline_oracle.py``
keeps the loop version as its oracle).  This module holds:

* :class:`EventLoop` — a stable priority queue of ``(time, kind, *data)``
  events.  Events at equal time are ordered by ``kind`` first (lower kind
  wins — e.g. a server *freeing* is processed before a simultaneous
  *arrival*, so the arrival sees the idle server directly) and then by
  insertion order, which keeps every simulation bit-deterministic.
  :meth:`EventLoop.pop_before` pops the next event only if it is due
  before a given ``(time, kind)``, so a client can merge a pre-sorted
  stream of its own into the heap's order.
* :class:`ServerPool` — a set of identical-role servers with optional
  per-server speed factors, either *keyed* (each client is bound to one
  server and queues behind it) or *shared* (one FIFO queue drained by
  whichever server frees first), tracking busy time, queue peaks and
  per-server completion counts.
* :class:`StageJitter` — seeded log-normal service-time perturbation,
  shared by every simulation that wants per-item timing variation while
  staying reproducible.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.utils.validation import require_finite, require_non_negative, require_positive

__all__ = ["FREE", "ARRIVE", "TIMEOUT", "EventLoop", "ServerPool", "StageJitter"]

#: Canonical event kinds.  At equal timestamps lower kinds are processed
#: first: a server finishing its forward (``FREE``) is handled before a
#: simultaneous arrival (``ARRIVE``), which is handled before batching
#: timers (``TIMEOUT``).  Clients may define further kinds around these
#: (the serving simulator's table is in :mod:`repro.serving.simulator`);
#: only the relative ordering matters.
FREE, ARRIVE, TIMEOUT = 0, 1, 2


class EventLoop:
    """A stable heap of timed events.

    Events are ``(time, kind, *data)`` tuples.  The loop keeps a strictly
    deterministic order: primary key is ``time``, secondary is ``kind``
    (lower first) and ties beyond that are broken by insertion order, so
    payloads are never compared.  :attr:`now` tracks the timestamp of the
    most recently popped event.

    The loop counts its own traffic — :attr:`events_scheduled` and
    :attr:`events_popped` — so simulations built on it get first-party
    hot-path numbers (surfaced by the serving profiler) at the cost of one
    integer increment per event.
    """

    __slots__ = ("_heap", "_counter", "now", "events_popped")

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, tuple[Any, ...]]] = []
        self._counter = 0
        self.now = 0.0
        self.events_popped = 0

    def __bool__(self) -> bool:
        return bool(self._heap)

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def events_scheduled(self) -> int:
        """Total events ever scheduled on this loop."""
        return self._counter

    def schedule(self, time: float, kind: int, *data: Any) -> None:
        """Schedule an event; ``data`` rides along uncompared."""
        # inlined require_non_negative (NaN fails too): this is the hottest
        # call site of a million-request simulation, one function call per
        # event matters
        if not time >= 0:
            raise ValueError(f"event time must be non-negative, got {time}")
        heapq.heappush(self._heap, (time, kind, self._counter, data))
        self._counter += 1

    def pop_before(self, time: float, kind: int) -> tuple[float, int, tuple[Any, ...]] | None:
        """Pop the next event if it sorts strictly before ``(time, kind)``, else ``None``.

        This merges a client's own pre-sorted stream into the heap's order:
        an item of that stream, ordered before every event of its own
        ``(time, kind)`` as if it had been scheduled first, is due before
        every remaining event exactly when this returns ``None``.
        """
        heap = self._heap
        # an entry equal in (time, kind) is the longer tuple, so not less
        if heap and heap[0] < (time, kind):
            time, kind, _, data = heapq.heappop(heap)
            self.now = time
            self.events_popped += 1
            return time, kind, data
        return None

    def pop(self) -> tuple[float, int, tuple[Any, ...]]:
        """Pop the next event and advance :attr:`now` to its timestamp."""
        if not self._heap:
            raise IndexError("pop from an empty event loop")
        time, kind, _, data = heapq.heappop(self._heap)
        self.now = time
        self.events_popped += 1
        return time, kind, data


class ServerPool:
    """A FIFO pool of servers with per-server speed factors.

    ``keyed=True`` binds each client to the server given by its key (e.g.
    the per-stream tile groups of the score/context GEMMs), with one queue
    per server; ``keyed=False`` is a shared pool (softmax engines, chips of
    a serving fleet) with a single queue drained by whichever server frees
    first.  ``speedups`` divides the nominal service time of each server
    (heterogeneous pools); they default to a homogeneous pool of ``1.0``.

    The pool tracks aggregate busy time (:attr:`busy_s`, charged by the
    client via :meth:`occupy`), the queued-item count (:meth:`queue_depth`,
    kept up to date by :meth:`enqueue` and :meth:`pop`), its peak
    (:attr:`queue_peak`) and per-server completion counts (:attr:`served`).
    """

    __slots__ = (
        "name",
        "keyed",
        "speedups",
        "idle",
        "online",
        "queues",
        "heads",
        "_queued",
        "busy_s",
        "queue_peak",
        "served",
    )

    def __init__(
        self,
        name: str,
        num_servers: int,
        *,
        keyed: bool = False,
        speedups: Sequence[float] | None = None,
    ) -> None:
        require_positive(num_servers, "num_servers")
        self.name = name
        self.keyed = keyed
        if speedups is None:
            speedups = (1.0,) * num_servers
        self.speedups = [float(s) for s in speedups]
        if len(self.speedups) != num_servers:
            raise ValueError(
                f"{name}: got {len(self.speedups)} speedups for {num_servers} servers"
            )
        for speed in self.speedups:
            require_finite(speed, f"{name} server speedup")
            require_positive(speed, f"{name} server speedup")
        self.idle = [True] * num_servers
        self.online = [True] * num_servers
        self.queues: list[list[Any]] = [[] for _ in range(num_servers if keyed else 1)]
        self.heads = [0] * len(self.queues)
        self._queued = 0
        self.busy_s = 0.0
        self.queue_peak = 0
        self.served = [0] * num_servers

    @property
    def num_servers(self) -> int:
        """Number of servers in the pool."""
        return len(self.idle)

    def queue_of(self, key: int = 0) -> int:
        """Queue index serving ``key`` (always 0 for shared pools)."""
        return key if self.keyed else 0

    def queue_depth(self) -> int:
        """Items currently waiting across all queues."""
        return self._queued

    def enqueue(self, queue: int, item: Any) -> None:
        """Append an item to a queue, updating the peak-depth watermark."""
        self.queues[queue].append(item)
        self._queued += 1
        if self._queued > self.queue_peak:
            self.queue_peak = self._queued

    def peek(self, queue: int) -> Any | None:
        """The oldest queued item without removing it (``None`` when empty)."""
        if self.heads[queue] >= len(self.queues[queue]):
            return None
        return self.queues[queue][self.heads[queue]]

    def pop(self, queue: int) -> Any | None:
        """Pop the oldest queued item (``None`` when the queue is empty)."""
        if self.heads[queue] >= len(self.queues[queue]):
            return None
        item = self.queues[queue][self.heads[queue]]
        self.heads[queue] += 1
        self._queued -= 1
        return item

    def idle_server(self, key: int = 0) -> int | None:
        """An idle *online* server able to serve ``key``, or ``None``.

        Keyed pools return the key's server iff it is idle; shared pools
        return the lowest-indexed idle server.  Servers taken offline via
        :meth:`set_online` (e.g. failed chips of a fault-injected serving
        fleet) are never offered, whatever their idle state.
        """
        if self.keyed:
            return key if self.idle[key] and self.online[key] else None
        for index, free in enumerate(self.idle):
            if free and self.online[index]:
                return index
        return None

    def set_online(self, server: int, online: bool) -> None:
        """Mark a server as dispatchable (``True``) or failed/offline.

        Offline servers keep their queue and bookkeeping but are skipped by
        :meth:`idle_server`; all servers start online, so pools that never
        call this behave exactly as before.  The mask serves double duty:
        fault-injected fleets take failed chips offline, and the serving
        autoscaler parks deep-idle chips the same way.
        """
        self.online[server] = online

    def service_time(self, server: int, nominal_s: float) -> float:
        """``nominal_s`` scaled by the server's speed factor."""
        return nominal_s / self.speedups[server]

    def acquire(self, server: int) -> None:
        """Mark a server busy and count the item it starts serving."""
        if not self.idle[server]:
            raise RuntimeError(f"{self.name}: server {server} is already busy")
        self.idle[server] = False
        self.served[server] += 1

    def release(self, server: int) -> None:
        """Mark a server idle again."""
        self.idle[server] = True

    def occupy(self, duration_s: float) -> None:
        """Charge ``duration_s`` of server occupancy to the pool's busy time."""
        self.busy_s += duration_s


@dataclass(frozen=True)
class StageJitter:
    """Per-item multiplicative jitter on service times.

    Each ``(item, stage)`` service time is scaled by ``exp(sigma * z)`` with
    ``z ~ N(0, 1)`` drawn from a generator seeded with ``seed`` — log-normal
    factors keep every service time positive.  ``sigma = 0`` disables the
    draw entirely, so a jitter-free simulation stays bit-deterministic.
    """

    sigma: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        require_non_negative(self.sigma, "sigma")

    def factors(self, num_items: int, num_stages: int = 3) -> np.ndarray:
        """A ``(num_items, num_stages)`` matrix of service-time scale factors."""
        if self.sigma == 0.0:
            return np.ones((num_items, num_stages))
        rng = np.random.default_rng(self.seed)
        return np.exp(self.sigma * rng.standard_normal((num_items, num_stages)))
