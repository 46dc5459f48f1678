"""Discrete-event primitives of the serving simulator.

The request-level serving simulator (:mod:`repro.serving.simulator`)
moves requests and batches through a fleet of accelerator chips.  This
module holds what its one event loop runs on, plus the seeded jitter the
attention-pipeline executor (:mod:`repro.core.scheduler`) draws:

* :class:`EventLoop` — a stable priority queue of ``(time, kind, *data)``
  events.  Events at equal time are ordered by ``kind`` first (lower kind
  wins — e.g. a server *freeing* is processed before a simultaneous
  *arrival*, so the arrival sees the idle server directly) and then by
  insertion order, which keeps every simulation bit-deterministic.  A
  client that merges pre-sorted streams of its own into that order peeks
  at :attr:`EventLoop.heap`'s top and pops only when the top is due first.
* :class:`ServerPool` — the chips: which are idle and which are online,
  and their aggregate busy time.
* :class:`StageJitter` — seeded log-normal service-time perturbation,
  shared by every simulation that wants per-item timing variation while
  staying reproducible.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.utils.validation import require_finite, require_non_negative, require_positive

__all__ = ["FREE", "ARRIVE", "EventLoop", "ServerPool", "StageJitter"]

#: Canonical event kinds.  At equal timestamps lower kinds are processed
#: first: a server finishing its forward (``FREE``) is handled before a
#: simultaneous arrival (``ARRIVE``).  Clients may define further kinds
#: around these (the serving simulator's table is in
#: :mod:`repro.serving.simulator`); only the relative ordering matters.
FREE, ARRIVE = 0, 1


class EventLoop:
    """A stable heap of timed events.

    Events are ``(time, kind, *data)`` tuples.  The loop keeps a strictly
    deterministic order: primary key is ``time``, secondary is ``kind``
    (lower first) and ties beyond that are broken by insertion order, so
    payloads are never compared.

    The loop counts its own traffic — :attr:`events_scheduled` and
    :attr:`events_popped` — so simulations built on it get first-party
    hot-path numbers (surfaced by the serving profiler) at the cost of one
    integer increment per event.

    :attr:`heap` holds the pending ``(time, kind, order, data)`` entries
    as a binary heap.  A client may read ``heap[0]`` to decide whether the
    next event is due before an item of its own: an entry equal to that
    item in ``(time, kind)`` is the longer tuple, so it compares greater,
    and ``heap[0] < (time, kind)`` holds exactly when the event is due
    first.  Events are added and removed only through :meth:`schedule` and
    :meth:`pop`.
    """

    __slots__ = ("heap", "_counter", "events_popped")

    def __init__(self) -> None:
        self.heap: list[tuple[float, int, int, tuple[Any, ...]]] = []
        self._counter = 0
        self.events_popped = 0

    def __bool__(self) -> bool:
        return bool(self.heap)

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
        heapq.heappush(self.heap, (time, kind, self._counter, data))
        self._counter += 1

    def pop(self) -> tuple[float, int, tuple[Any, ...]]:
        """Pop the next event."""
        if not self.heap:
            raise IndexError("pop from an empty event loop")
        time, kind, _, data = heapq.heappop(self.heap)
        self.events_popped += 1
        return time, kind, data


class ServerPool:
    """A pool of servers — the chips of a serving fleet.

    :attr:`idle` and :attr:`online` are plain per-server lists the client
    may read directly; :attr:`busy_s` is the aggregate busy time the
    client charges via :meth:`occupy`.  Service times, speed factors
    included, are the client's business (:class:`~repro.serving.fleet.ChipFleet`
    validates and applies per-chip speedups).
    """

    __slots__ = ("idle", "online", "busy_s")

    def __init__(self, num_servers: int) -> None:
        require_positive(num_servers, "num_servers")
        self.idle = [True] * num_servers
        self.online = [True] * num_servers
        self.busy_s = 0.0

    def idle_server(self) -> int | None:
        """The lowest-indexed idle *online* server, or ``None``.

        Servers taken offline via :meth:`set_online` (e.g. failed chips of a
        fault-injected serving fleet) are never offered, whatever their
        idle state.
        """
        for index, free in enumerate(self.idle):
            if free and self.online[index]:
                return index
        return None

    def set_online(self, server: int, online: bool) -> None:
        """Mark a server as dispatchable (``True``) or failed/offline.

        Offline servers are skipped by :meth:`idle_server`; all servers
        start online.  The mask serves double duty: fault-injected fleets
        take failed chips offline, and the serving autoscaler parks
        deep-idle chips the same way.
        """
        self.online[server] = online

    def acquire(self, server: int) -> None:
        """Mark a server busy."""
        if not self.idle[server]:
            raise RuntimeError(f"server {server} is already busy")
        self.idle[server] = False

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
        require_finite(self.sigma, "sigma")

    def factors(self, num_items: int, num_stages: int = 3) -> np.ndarray:
        """A ``(num_items, num_stages)`` matrix of service-time scale factors."""
        if self.sigma == 0.0:
            return np.ones((num_items, num_stages))
        rng = np.random.default_rng(self.seed)
        return np.exp(self.sigma * rng.standard_normal((num_items, num_stages)))
