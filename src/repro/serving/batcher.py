"""Dynamic batching policy: batch-size cap plus an accumulation timeout.

The policy is the standard server-side dynamic batcher (Triton's
``max_queue_delay``, vLLM's waiting-queue cap): queued requests are
released to an idle chip as soon as either

* the queue holds a full batch (``max_batch_size`` requests), or
* the oldest queued request has waited ``max_wait_s``.

``max_wait_s = 0`` dispatches greedily — whatever is queued (up to the
cap) leaves the moment a chip is free, which with ``max_batch_size = 1``
degenerates to pure FIFO single-request service (the M/D/1 regime the
cross-validation tests exercise).  A non-zero timeout trades first-token
latency for throughput: lightly-loaded systems hold requests briefly to
amortise the batch's weight reads over more queries.

``order`` selects how the queue is drained: ``"fifo"`` (arrival order,
the default and the only behaviour before SLO classes existed) or
``"edf"`` — earliest absolute deadline (``arrival_s + deadline_s``)
first, so tight-deadline requests overtake loose ones and a batch is the
``k`` most urgent queued requests.  Requests without a deadline sort
last under EDF (their absolute deadline is ``inf``), with arrival order
breaking ties.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.validation import require_non_negative, require_positive

__all__ = ["BATCH_ORDERS", "DynamicBatcher", "NO_BATCHING"]

#: Queue-drain orders a DynamicBatcher supports.
BATCH_ORDERS = ("fifo", "edf")


@dataclass(frozen=True)
class DynamicBatcher:
    """Release policy of the serving queue.

    Attributes
    ----------
    max_batch_size:
        Largest batch one chip dispatch may contain.
    max_wait_s:
        Longest the oldest queued request may wait for co-batched company
        before a partial batch is released anyway.
    order:
        Queue-drain order: ``"fifo"`` (arrival) or ``"edf"`` (earliest
        absolute deadline first).
    """

    max_batch_size: int = 8
    max_wait_s: float = 0.0
    order: str = "fifo"

    def __post_init__(self) -> None:
        require_positive(self.max_batch_size, "max_batch_size")
        require_non_negative(self.max_wait_s, "max_wait_s")
        if self.order not in BATCH_ORDERS:
            raise ValueError(
                f"order must be one of {BATCH_ORDERS}, got {self.order!r}"
            )

    @classmethod
    def edf(
        cls, max_batch_size: int = 8, max_wait_s: float = 0.0
    ) -> "DynamicBatcher":
        """The deadline-aware variant: drain by earliest absolute deadline."""
        return cls(max_batch_size=max_batch_size, max_wait_s=max_wait_s, order="edf")

    def ready(self, queue_len: int, oldest_wait_s: float) -> bool:
        """Should a batch be released to an idle chip right now?"""
        if queue_len <= 0:
            return False
        return queue_len >= self.max_batch_size or oldest_wait_s >= self.max_wait_s

    def batch_of(self, queue_len: int) -> int:
        """How many requests the next dispatch takes from the queue."""
        return min(queue_len, self.max_batch_size)

    def queue_key(self, request, arrival_order: int) -> float:
        """The heap key this policy drains a per-chip queue by.

        Arrival order under FIFO, absolute deadline under EDF — the
        multi-queue router keeps one heap per chip keyed by
        ``(queue_key, arrival_order)``, so FIFO drains in arrival order
        and EDF drains most-urgent-first with arrival order breaking
        ties (and deadline-free requests, at ``inf``, sorting last).
        """
        if self.order == "edf":
            return request.absolute_deadline_s
        return float(arrival_order)


#: Pure FIFO single-request service — the M/D/1 cross-validation regime.
NO_BATCHING = DynamicBatcher(max_batch_size=1, max_wait_s=0.0)
