"""Chip failure/repair processes, retries and graceful degradation.

The serving simulator of PRs 4–5 assumed an always-healthy fleet.  This
module supplies the three pieces a production fleet needs when hardware
misbehaves, each usable on its own and composed by
:class:`~repro.serving.simulator.ServingSimulator`:

* :class:`FaultInjector` — per-chip MTBF/MTTR failure–repair processes.
  Each chip draws its time-to-failure from an independent exponential
  stream (its own :class:`numpy.random.Generator`, spawned from one seed
  sequence, so fault draws never perturb arrival or jitter streams).  The
  repair that follows a failure is a *maintenance event with a physical
  price*: the chip's tile bank lost its conductance state, so repair time
  is detection/drain overhead plus the full-model operand reprogramming
  cost from :meth:`~repro.core.batch_cost.BatchCostModel.maintenance_reprogram_latency_s`
  (exposed per chip as ``ChipFleet.reprogram_latency_s``), not a magic
  constant.
* :class:`RetryPolicy` — what happens to the in-flight requests of a
  failed batch: bounded attempts, exponential backoff with seeded jitter,
  and a per-request completion deadline.  The backoff is deadline-aware —
  a retry whose re-enqueue time already exceeds the request's deadline is
  abandoned instead of queued, so a dying request never wastes queue
  capacity.
* :class:`AdmissionController` — graceful degradation under the capacity
  the faults remove: a bounded queue that sheds arrivals when full,
  deadline-based shedding of queued requests that can no longer make
  their SLO, and an optional degraded mode that caps batch size while any
  chip is down (smaller batches shrink the blast radius of the next
  failure).

Every process is seeded and deterministic; a fault-injected simulation is
exactly reproducible, and without a :class:`FaultInjector` the simulator
never schedules a failure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.stats import spawn_seeds
from repro.utils.validation import (
    require_finite,
    require_non_negative,
    require_positive,
)

__all__ = [
    "RetryPolicy",
    "AdmissionController",
    "NO_ADMISSION",
    "FaultInjector",
    "FaultSession",
]


@dataclass(frozen=True)
class RetryPolicy:
    """Retry semantics for requests lost to a chip failure.

    Attributes
    ----------
    max_attempts:
        Total service attempts a request may consume (first dispatch
        included); a request lost on its ``max_attempts``-th attempt is
        abandoned.
    backoff_base_s:
        Back-off before the first retry re-enters the queue.
    backoff_multiplier:
        Growth factor of the back-off per further retry (exponential
        back-off; 1.0 keeps it constant).
    jitter:
        Uniform ±fraction applied to each back-off (decorrelates the retry
        herd of one lost batch).  Drawn from the fault session's dedicated
        jitter stream, never from arrival or failure streams.
    deadline_s:
        Per-request completion deadline, relative to its arrival.  ``None``
        disables deadline awareness: requests retry until attempts run out
        and are never shed as expired.
    """

    max_attempts: int = 3
    backoff_base_s: float = 1e-3
    backoff_multiplier: float = 2.0
    jitter: float = 0.1
    deadline_s: float | None = None

    def __post_init__(self) -> None:
        require_positive(self.max_attempts, "max_attempts")
        require_finite(self.backoff_base_s, "backoff_base_s")
        require_non_negative(self.backoff_base_s, "backoff_base_s")
        require_positive(self.backoff_multiplier, "backoff_multiplier")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {self.jitter}")
        if self.deadline_s is not None:
            require_finite(self.deadline_s, "deadline_s")
            require_positive(self.deadline_s, "deadline_s")

    def nominal_backoff_s(self, attempt: int) -> float:
        """Jitter-free back-off after the ``attempt``-th failed attempt.

        Non-decreasing in ``attempt`` (the property suite pins this), with
        ``attempt = 1`` the first retry.
        """
        require_positive(attempt, "attempt")
        return self.backoff_base_s * self.backoff_multiplier ** (attempt - 1)

    def backoff_s(self, attempt: int, rng: np.random.Generator | None = None) -> float:
        """Jittered back-off after the ``attempt``-th failed attempt."""
        nominal = self.nominal_backoff_s(attempt)
        if rng is None or self.jitter == 0.0:
            return nominal
        return nominal * float(rng.uniform(1.0 - self.jitter, 1.0 + self.jitter))

    def deadline_of(self, arrival_s: float) -> float:
        """Absolute completion deadline of a request (inf when disabled)."""
        if self.deadline_s is None:
            return float("inf")
        return arrival_s + self.deadline_s


@dataclass(frozen=True)
class AdmissionController:
    """Load shedding and degraded-mode policy of the serving queue.

    Attributes
    ----------
    max_queue_depth:
        Bound on the number of queued requests; an arrival (or retry
        re-entry) finding the queue full is shed.  ``None`` keeps the
        queue unbounded — the configuration whose fault response is queue
        blow-up, kept as the explicit baseline the e11 sweep degrades
        gracefully against.
    shed_expired:
        Drop queued requests whose deadline has already passed when they
        reach the head of the queue, instead of spending chip time on work
        nobody is waiting for.  Needs a :class:`RetryPolicy` deadline to
        have any effect.
    degraded_max_batch:
        Batch-size cap applied while any chip is failed (``None`` keeps the
        batcher's cap).  Smaller batches under degradation shrink the blast
        radius: the next failure loses fewer in-flight requests.
    """

    max_queue_depth: int | None = None
    shed_expired: bool = True
    degraded_max_batch: int | None = None

    def __post_init__(self) -> None:
        if self.max_queue_depth is not None:
            require_positive(self.max_queue_depth, "max_queue_depth")
        if self.degraded_max_batch is not None:
            require_positive(self.degraded_max_batch, "degraded_max_batch")


#: Accept everything, serve everything: the pre-admission-control queue.
NO_ADMISSION = AdmissionController(max_queue_depth=None, shed_expired=False)


class FaultSession:
    """The random streams of one fault-injected simulation run.

    Created by :meth:`FaultInjector.session` per simulation; owning the
    generators here (not on the injector) keeps the injector reusable —
    every run over the same injector replays the same failure history.
    Streams are spawned from one :class:`numpy.random.SeedSequence`, so
    per-chip failure processes are mutually independent and adding chips
    never reshuffles existing chips' draws; the retry-jitter stream is the
    last spawn, independent of them all.
    """

    def __init__(self, injector: "FaultInjector", num_chips: int) -> None:
        require_positive(num_chips, "num_chips")
        self.injector = injector
        children = spawn_seeds(injector.seed, num_chips + 1)
        self._chip_rngs = [np.random.default_rng(seq) for seq in children[:num_chips]]
        self.jitter_rng = np.random.default_rng(children[num_chips])

    def time_to_failure_s(self, chip: int) -> float:
        """Exponential time from (re)entering service to the next failure."""
        return float(self._chip_rngs[chip].exponential(self.injector.mtbf_s))

    def downtime_s(self, chip: int, repair_s: float) -> float:
        """Total downtime of one failure: detection/drain plus the repair.

        ``repair_s`` is the chip's reprogramming cost from the fleet; the
        injector's ``repair_s`` override (when set) replaces it.  The
        duration is deterministic — a maintenance cost, not a draw.
        """
        if self.injector.repair_s is not None:
            repair_s = self.injector.repair_s
        return self.injector.detection_s + repair_s


@dataclass(frozen=True)
class FaultInjector:
    """Per-chip MTBF/MTTR failure–repair configuration.

    Attributes
    ----------
    mtbf_s:
        Mean time between failures of one chip, measured from the moment
        it (re)enters service; times-to-failure are exponential.
    detection_s:
        Downtime before repair begins: failure detection, fleet drain,
        operator response.  This usually dominates the physical rewrite.
    repair_s:
        Repair duration override.  ``None`` (the default) derives it from
        the failed chip's full-model operand reprogramming cost
        (``ChipFleet.reprogram_latency_s``) — the physically grounded
        maintenance event; a float forces a fixed duration (synthetic
        service models that price no reprogramming).
    seed:
        Seed of the per-chip failure streams and the retry-jitter stream —
        an integer, or a :class:`numpy.random.SeedSequence` (how the
        sharded simulator hands each shard an independent fault tree).

    ``steady_state_availability`` gives the long-run healthy fraction of
    one chip under a given repair duration — the knob the e11 sweep turns
    to hold capacity loss at, say, 10%.
    """

    mtbf_s: float
    detection_s: float = 0.0
    repair_s: float | None = None
    seed: int | np.random.SeedSequence = 0

    def __post_init__(self) -> None:
        require_finite(self.mtbf_s, "mtbf_s")
        require_positive(self.mtbf_s, "mtbf_s")
        require_finite(self.detection_s, "detection_s")
        require_non_negative(self.detection_s, "detection_s")
        if self.repair_s is not None:
            require_finite(self.repair_s, "repair_s")
            require_non_negative(self.repair_s, "repair_s")

    def session(self, num_chips: int) -> FaultSession:
        """Fresh, reproducible random streams for one simulation run."""
        return FaultSession(self, num_chips)

    def mean_downtime_s(self, repair_s: float) -> float:
        """Downtime per failure given a chip's reprogramming cost."""
        if self.repair_s is not None:
            repair_s = self.repair_s
        return self.detection_s + repair_s

    def steady_state_availability(self, repair_s: float) -> float:
        """Long-run healthy fraction of one chip: MTBF / (MTBF + MTTR)."""
        downtime = self.mean_downtime_s(repair_s)
        return self.mtbf_s / (self.mtbf_s + downtime)

    @classmethod
    def for_capacity_loss(
        cls,
        loss: float,
        repair_s: float,
        detection_s: float = 0.0,
        seed: int = 0,
    ) -> "FaultInjector":
        """An injector whose steady-state capacity loss is ``loss``.

        Solves ``downtime / (mtbf + downtime) = loss`` for the MTBF at the
        given per-failure downtime (detection plus repair), so sweeps can
        be parameterised directly in the quantity the degradation curves
        plot.
        """
        if not 0.0 < loss < 1.0:
            raise ValueError(f"loss must be in (0, 1), got {loss}")
        require_positive(detection_s + repair_s, "downtime (detection_s + repair_s)")
        downtime = detection_s + repair_s
        mtbf = downtime * (1.0 - loss) / loss
        return cls(mtbf_s=mtbf, detection_s=detection_s, repair_s=None, seed=seed)
