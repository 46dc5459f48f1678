"""SLO classes: named deadline classes and the taggers that assign them.

:class:`SLOClass` / :class:`SLOPolicy` assign service classes and
relative deadlines to a request stream — randomly by traffic mix, or by
sequence length (the standard interactive-vs-batch split).  The tags ride
on each :class:`~repro.serving.arrivals.Request`; the report breaks
latency and deadline attainment down per class.

Scheduling by deadline is the batcher's job
(:meth:`~repro.serving.batcher.DynamicBatcher.edf`): the simulator's one
event loop keys its queues by absolute deadline ``arrival_s +
deadline_s``, arrival order breaking ties, so untagged requests (deadline
``inf``) sort last in arrival order.  EDF there is non-preemptive
batch-EDF: each dispatch takes the ``k`` most urgent queued requests, and
batcher maturity (``max_wait_s``) is measured on the current head — the
most urgent request under EDF, the oldest under FIFO.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from repro.serving.arrivals import Request, _trusted_request
from repro.utils.validation import (
    require_finite,
    require_non_negative,
    require_positive,
    require_positive_int,
)

__all__ = ["SLOClass", "SLOPolicy"]


@dataclass(frozen=True)
class SLOClass:
    """One service class: a name and a completion deadline.

    ``deadline_s`` is relative to arrival; ``inf`` declares a best-effort
    class with no deadline (it still gets per-class latency columns).
    """

    name: str
    deadline_s: float = math.inf

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("an SLO class needs a non-empty name")
        require_positive(self.deadline_s, "deadline_s")  # inf allowed


@dataclass(frozen=True)
class SLOPolicy:
    """An ordered set of SLO classes plus ways to tag a request stream.

    The class index in ``classes`` is the ``slo_class`` id written onto
    requests (and reported per class); by convention tighter-deadline
    classes come first.
    """

    classes: tuple[SLOClass, ...]

    def __post_init__(self) -> None:
        if not self.classes:
            raise ValueError("an SLO policy needs at least one class")
        object.__setattr__(self, "classes", tuple(self.classes))

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    def deadline_of(self, slo_class: int) -> float:
        """Relative deadline of one class id."""
        return self.classes[slo_class].deadline_s

    def tag(self, request: Request, slo_class: int) -> Request:
        """One request re-tagged with a class id and its deadline."""
        return replace(
            request,
            slo_class=slo_class,
            deadline_s=self.classes[slo_class].deadline_s,
        )

    def tag_random(
        self,
        requests: Sequence[Request],
        weights: Sequence[float],
        seed: int = 0,
    ) -> list[Request]:
        """Tag a stream by traffic mix: class drawn i.i.d. with ``weights``.

        Seeded and independent of the arrival process, so the same stream
        tagged twice gets identical classes — FIFO-vs-EDF comparisons run
        the *same* tagged traffic through both policies.  The class ids are
        one ``rng.choice`` array draw, and the result equals tagging each
        request with :meth:`tag`, without re-validating each request.
        """
        shares = np.asarray(weights, dtype=np.float64)
        if shares.shape != (self.num_classes,):
            raise ValueError(
                f"got {shares.size} weights for {self.num_classes} classes"
            )
        for i, weight in enumerate(weights):
            require_finite(require_non_negative(weight, f"weights[{i}]"), f"weights[{i}]")
        if shares.sum() <= 0:
            raise ValueError(f"weights must sum above zero, got {shares.tolist()}")
        rng = np.random.default_rng(seed)
        drawn = rng.choice(
            self.num_classes, size=len(requests), p=shares / shares.sum()
        )
        return self._tagged(requests, drawn)

    def tag_by_length(
        self, requests: Sequence[Request], boundaries: Sequence[int]
    ) -> list[Request]:
        """Tag a stream by sequence length — the interactive/batch split.

        ``boundaries`` are ascending length cutoffs, one fewer than there
        are classes: a request with ``seq_len <= boundaries[i]`` falls in
        class ``i``, anything longer in the last class.  Short requests
        land in the early (tight-deadline) classes, mirroring the serving
        reality that interactive traffic is short and latency-bound while
        long analytical queries tolerate queueing.  The class ids are one
        ``np.searchsorted`` over the boundaries, and the result equals
        tagging each request with :meth:`tag`, without re-validating each
        request.
        """
        boundaries = [
            int(require_positive_int(b, f"boundaries[{i}]")) for i, b in enumerate(boundaries)
        ]
        if len(boundaries) != self.num_classes - 1:
            raise ValueError(
                f"need {self.num_classes - 1} boundaries for "
                f"{self.num_classes} classes, got {len(boundaries)}"
            )
        if boundaries != sorted(boundaries):
            raise ValueError(f"boundaries must be ascending, got {boundaries}")
        seq_lens = np.fromiter(
            (r.seq_len for r in requests), dtype=np.float64, count=len(requests)
        )
        # the first boundary at or above each length; past the last, the last class
        return self._tagged(requests, np.searchsorted(boundaries, seq_lens, side="left"))

    def _tagged(self, requests: Sequence[Request], classes: np.ndarray) -> list[Request]:
        """``[self.tag(r, c) for r, c in zip(requests, classes)]``, built in one pass.

        Skips :class:`Request`'s per-instance validation, which has nothing
        left to catch: index, arrival and length come from an already
        constructed request, and the deadline from the validated
        :class:`SLOClass` of each class id.
        """
        deadlines = [slo.deadline_s for slo in self.classes]
        return [
            _trusted_request(r.index, r.arrival_s, r.seq_len, c, deadlines[c])
            for r, c in zip(requests, classes.tolist())
        ]
