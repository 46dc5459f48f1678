"""Closed-form queueing theory the serving simulator is validated against.

In the single-chip, no-batching limit with Poisson arrivals and a
deterministic whole-model service time, the simulated system is exactly an
M/D/1 queue, so the Pollaczek–Khinchine formula predicts its steady-state
waiting time:

    W_q = lambda * E[S^2] / (2 * (1 - rho))          (general M/G/1)
        = rho * s / (2 * (1 - rho))                  (deterministic S = s)

The cross-validation suite drives the simulator at moderate utilization
and requires the measured mean wait to land within a few percent of this —
the serving-level analogue of the pipeline executor's closed-form
cross-checks.  :class:`MM1Queue` (exponential service) is included as the
pessimistic bracket: a deterministic server waits exactly half as long as
an exponential one, so a correct simulation must fall on the M/D/1 line,
not the M/M/1 one.

With exponential service, no batching and ``c`` identical chips draining
the global queue, the simulated system is exactly an M/M/c queue, whose
mean wait :class:`MMcQueue` gives by the Erlang C formula.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.validation import require_positive, require_positive_int

__all__ = ["MD1Queue", "MM1Queue", "MMcQueue", "MachineRepairQueue"]


class _OpenQueue:
    """Shared derived quantities of an open queue at rate/service."""

    arrival_rate_rps: float
    service_s: float

    @property
    def utilization(self) -> float:
        """Per-server load ``rho = lambda * s`` (one server)."""
        return self.arrival_rate_rps * self.service_s

    @property
    def mean_wait_s(self) -> float:  # pragma: no cover - overridden
        raise NotImplementedError

    @property
    def mean_latency_s(self) -> float:
        """Mean sojourn time: queueing wait plus service."""
        return self.mean_wait_s + self.service_s

    def _check(self) -> None:
        require_positive(self.arrival_rate_rps, "arrival_rate_rps")
        require_positive(self.service_s, "service_s")
        if self.utilization >= 1.0:
            raise ValueError(
                f"queue is unstable: rho = {self.utilization:.3f} >= 1 "
                f"(rate {self.arrival_rate_rps} rps, service {self.service_s} s)"
            )


@dataclass(frozen=True)
class MD1Queue(_OpenQueue):
    """M/D/1: Poisson arrivals, deterministic service, one server."""

    arrival_rate_rps: float
    service_s: float

    def __post_init__(self) -> None:
        self._check()

    @property
    def mean_wait_s(self) -> float:
        """Pollaczek–Khinchine mean wait for deterministic service."""
        rho = self.utilization
        return rho * self.service_s / (2.0 * (1.0 - rho))


@dataclass(frozen=True)
class MM1Queue(_OpenQueue):
    """M/M/1: Poisson arrivals, exponential service, one server."""

    arrival_rate_rps: float
    service_s: float

    def __post_init__(self) -> None:
        self._check()

    @property
    def mean_wait_s(self) -> float:
        """Mean wait with exponential service — twice the M/D/1 wait."""
        rho = self.utilization
        return rho * self.service_s / (1.0 - rho)


@dataclass(frozen=True)
class MMcQueue(_OpenQueue):
    """M/M/c: Poisson arrivals, exponential service, ``num_servers`` servers.

    With offered load ``a = lambda * s`` and per-server load
    ``rho = a / c``, an arrival waits with the Erlang C probability

        C(c, a) = (a^c / c!) / (1 - rho)
                  / (sum_{k<c} a^k / k! + (a^c / c!) / (1 - rho))

    and the mean wait is ``W_q = C(c, a) * s / (c * (1 - rho))``.  ``c = 1``
    is :class:`MM1Queue`.
    """

    arrival_rate_rps: float
    service_s: float
    num_servers: int

    def __post_init__(self) -> None:
        require_positive_int(self.num_servers, "num_servers")
        self._check()

    @property
    def utilization(self) -> float:
        """Per-server load ``rho = lambda * s / c``."""
        return self.arrival_rate_rps * self.service_s / self.num_servers

    @property
    def wait_probability(self) -> float:
        """Erlang C: the chance an arrival finds every server busy."""
        offered = self.arrival_rate_rps * self.service_s
        term = 1.0  # a^k / k!, from k = 0
        below = 0.0  # sum over k < c
        for k in range(self.num_servers):
            below += term
            term *= offered / (k + 1)
        queued = term / (1.0 - self.utilization)
        return queued / (below + queued)

    @property
    def mean_wait_s(self) -> float:
        """Erlang C mean wait before service starts."""
        return (
            self.wait_probability
            * self.service_s
            / (self.num_servers * (1.0 - self.utilization))
        )


@dataclass(frozen=True)
class MachineRepairQueue:
    """M/M/1//N — the closed machine-repair / interactive-system queue.

    ``num_clients`` users cycle between an exponential think phase (mean
    ``think_s``) and one exponential server (mean ``service_s``): exactly
    the steady state of :class:`~repro.serving.arrivals.ClosedLoopClients`
    driving a single chip with exponential service and no batching.  The
    finite population makes the system self-throttling — it is *always*
    stable, unlike the open-loop queues above — and fully solvable:

        p_n / p_0 = N! / (N - n)! * (s / Z)^n        (n clients at the server)

    from which throughput is ``X = (1 - p_0) / s`` (the server completes
    at rate ``1/s`` whenever busy) and the mean response time follows from
    the **interactive response-time law** — Little's law over the whole
    cycle: ``N = X * (R + Z)``, so ``R = N / X - Z``.  The closed-loop
    cross-validation suite pins the simulator to these formulas.
    """

    num_clients: int
    think_s: float
    service_s: float

    def __post_init__(self) -> None:
        require_positive(self.num_clients, "num_clients")
        require_positive(self.think_s, "think_s")
        require_positive(self.service_s, "service_s")

    def _probabilities(self) -> list[float]:
        """Steady-state ``p_n`` of ``n`` clients at the server (birth-death solve)."""
        ratio = self.service_s / self.think_s
        terms = [1.0]
        for n in range(1, self.num_clients + 1):
            terms.append(terms[-1] * (self.num_clients - n + 1) * ratio)
        total = sum(terms)
        return [term / total for term in terms]

    @property
    def utilization(self) -> float:
        """Server busy fraction ``1 - p_0`` (always below 1: closed loops saturate, never diverge)."""
        return 1.0 - self._probabilities()[0]

    @property
    def throughput_rps(self) -> float:
        """System throughput ``X = (1 - p_0) / s``."""
        return self.utilization / self.service_s

    @property
    def mean_latency_s(self) -> float:
        """Mean response time from the interactive law ``R = N / X - Z``."""
        return self.num_clients / self.throughput_rps - self.think_s

    @property
    def mean_wait_s(self) -> float:
        """Mean queueing delay before service starts."""
        return self.mean_latency_s - self.service_s

