"""Topology-aware multi-queue serving: router, network stage, cost oracle.

The global queue of :class:`~repro.serving.simulator.ServingSimulator`
is one fleet-wide heap, so a long sequence routinely lands on a
small-tile chip while a big-tile chip idles.  A :class:`Router` passed to
the simulator puts a *front-end router* in front of per-chip queues
instead; the simulator's one event loop then runs them:

* **Network stage** — every routed request crosses a front-end→chip link
  (:class:`NetworkModel`, configurable per-link latency) and only joins
  the chip's queue after the hop; a batch stolen from a peer queue is
  charged one chip→chip steal hop before service starts.
* **Routing policies** (:data:`ROUTING_POLICIES`) — ``round_robin``
  (static interleave), ``join_shortest_queue`` (fewest outstanding
  requests: backlog plus in service), and ``shortest_expected_delay``,
  which uses the chip's batch-aware expected pricing as a cost oracle over
  (queue backlog + in-flight + the candidate request's ``seq_len``): the
  candidate is priced at the batcher's full batch size on each chip, so
  the per-request amortized cost of a long sequence is far lower on a
  big-tile chip and long requests prefer it even when its queue is deeper.
  Every policy picks among the chips that can take work (awake and not
  failed), or, when none can, among the chips that are not parked.
* **Work stealing** — dispatch is fleet-wide oldest-head-first (most
  urgent first under an EDF batcher): an idle chip whose own queue holds
  no mature batch pulls the oldest/most-urgent mature batch from a peer
  queue — under FIFO routing that head lives in the most-backlogged queue
  — paying the steal hop.  Stealing keeps the fleet work-conserving, so
  per-chip queues never strand work behind a busy chip.

Dispatch order is what makes the zero-cost limit exact: with a
homogeneous fleet, zero link and steal latencies, single-request
dispatch (:data:`~repro.serving.batcher.NO_BATCHING`) and stealing
enabled, ``join_shortest_queue`` and ``shortest_expected_delay`` route
every arrival to the lowest-indexed idle chip and every freed chip
steals the globally oldest queued request — exactly the global-FIFO
baseline, bit for bit (the property suite asserts full report equality).
``round_robin`` genuinely reorders service even then; that is the point
of comparing policies.

Faults, admission control, EDF and the autoscaler compose with routing
like with the global queue: a failed chip's queue survives and peers may
steal from it, a retried request re-enters through the router and pays a
fresh network hop, admission control sheds against the fleet-wide landed
backlog, and the autoscaler parks only chips with no queued or inbound
work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.serving.arrivals import Request
from repro.serving.fleet import ChipFleet
from repro.utils.validation import require_finite, require_non_negative

__all__ = ["ROUTING_POLICIES", "NetworkModel", "Router", "front_end"]

_INF = math.inf

#: Front-end request-to-queue routing policies.
ROUTING_POLICIES = ("round_robin", "join_shortest_queue", "shortest_expected_delay")


def _require_latency(value: float, name: str) -> None:
    """A hop latency must be finite and non-negative: an infinite one makes
    every route cost infinite, and the router would pick no chip."""
    require_finite(require_non_negative(value, name), name)


@dataclass(frozen=True)
class NetworkModel:
    """Front-end→fleet star topology with per-link latencies.

    ``link_latency_s`` is either one scalar (every front-end→chip link)
    or one latency per chip; ``steal_latency_s`` is the chip→chip hop a
    stolen batch pays before service starts.  It does not follow the link
    latency: it defaults to 0, an on-package steal.
    """

    link_latency_s: float | tuple[float, ...] = 0.0
    steal_latency_s: float = 0.0

    def __post_init__(self) -> None:
        if isinstance(self.link_latency_s, (int, float)):
            _require_latency(float(self.link_latency_s), "link_latency_s")
        else:
            links = tuple(float(s) for s in self.link_latency_s)
            object.__setattr__(self, "link_latency_s", links)
            for chip, latency in enumerate(links):
                _require_latency(latency, f"link_latency_s[{chip}]")
        _require_latency(self.steal_latency_s, "steal_latency_s")

    def links(self, num_chips: int) -> tuple[float, ...]:
        """Per-chip link latencies, the scalar replicated if need be."""
        if isinstance(self.link_latency_s, tuple):
            if len(self.link_latency_s) != num_chips:
                raise ValueError(
                    f"got {len(self.link_latency_s)} link latencies for "
                    f"{num_chips} chips"
                )
            return self.link_latency_s
        return (float(self.link_latency_s),) * num_chips

    def for_chips(self, chips: slice) -> "NetworkModel":
        """The sub-topology of one contiguous chip slice (sharding)."""
        if isinstance(self.link_latency_s, tuple):
            return NetworkModel(self.link_latency_s[chips], self.steal_latency_s)
        return self


@dataclass(frozen=True)
class Router:
    """Front-end routing configuration of a multi-queue serving run.

    Passing a ``Router`` to :class:`~repro.serving.simulator.ServingSimulator`
    (or the sharded variant) replaces the fleet-wide FIFO with one queue
    per chip behind this front end; ``None`` (the default everywhere)
    keeps the global queue bit-identical to before routing existed.
    """

    policy: str = "shortest_expected_delay"
    network: NetworkModel = NetworkModel()
    stealing: bool = True

    def __post_init__(self) -> None:
        if self.policy not in ROUTING_POLICIES:
            raise ValueError(
                f"policy must be one of {ROUTING_POLICIES}, got {self.policy!r}"
            )
        # any other value would be read by truth: stealing="no" steals
        if not isinstance(self.stealing, bool):
            raise ValueError(f"stealing must be a bool, got {self.stealing!r}")

    def for_chips(self, chips: slice) -> "Router":
        """This router restricted to one shard's contiguous chip slice."""
        return Router(self.policy, self.network.for_chips(chips), self.stealing)


def front_end(
    router: Router,
    fleet: ChipFleet,
    batch_size: int,
    queues: Sequence[list],
    in_service: Sequence[int],
) -> Callable[[Request, Sequence[int]], int]:
    """The routing decision of one run: ``route(request, usable) -> queue``.

    ``usable`` lists the chips the request may go to; ``queues`` (the
    per-chip heaps) and ``in_service`` (requests each chip is serving)
    are the event loop's live lists, read at every call.  The returned
    closure keeps the run's state: the round-robin cursor and, for the
    shortest-expected-delay oracle, one amortized cost row per
    ``seq_len`` priced at ``batch_size``.
    """
    num_chips = fleet.num_chips
    if router.policy == "round_robin":
        cursor = 0

        def route(request: Request, usable: Sequence[int]) -> int:
            nonlocal cursor
            while True:
                chip = cursor
                cursor = (cursor + 1) % num_chips
                if chip in usable:
                    return chip

        return route

    if router.policy == "join_shortest_queue":

        def route(request: Request, usable: Sequence[int]) -> int:
            best = -1
            best_cost = _INF
            for c in usable:
                cost = len(queues[c]) + in_service[c]
                if cost < best_cost:
                    best = c
                    best_cost = cost
            return best

        return route

    links = router.network.links(num_chips)
    # per-seq_len amortized cost row (one float per chip), built lazily:
    # route() runs once per request, so it must not allocate
    cost_rows: dict[int, list[float]] = {}

    def cost_row(seq_len: int) -> list[float]:
        row = []
        for chip in range(num_chips):
            price = fleet.expected_latency_s(chip, batch_size, seq_len)
            # a NaN or infinite price would beat no candidate, and route()
            # would return -1: every request to the last chip's queue
            if not 0.0 <= price < math.inf:
                raise ValueError(
                    f"chip {chip}: the expected latency of a batch of {batch_size} "
                    f"at seq_len {seq_len} must be finite and non-negative, got {price}"
                )
            row.append(price / batch_size)
        return row

    def route(request: Request, usable: Sequence[int]) -> int:
        # shortest expected delay: network hop plus the chip's outstanding
        # work priced at the candidate's amortized full-batch cost
        try:
            costs = cost_rows[request.seq_len]
        except KeyError:
            costs = cost_rows[request.seq_len] = cost_row(request.seq_len)
        best = -1
        best_cost = _INF
        for c in usable:
            cost = links[c] + (len(queues[c]) + in_service[c] + 1) * costs[c]
            if cost < best_cost:
                best = c
                best_cost = cost
        return best

    return route
