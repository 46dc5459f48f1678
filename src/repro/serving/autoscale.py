"""Reactive fleet autoscaling over chip power states.

The autoscaler is the capacity side of the serving control plane: a
periodic controller (``TICK`` events on the simulator's own event loop)
that watches fleet utilization and queue depth over a window and parks or
wakes chips to track a utilization band.  Parking a chip is cheap on this
hardware — RRAM tile banks are non-volatile, so a sleeping chip keeps its
weights at retention-level leakage and waking is a peripheral re-bias,
not a reprogram (:class:`~repro.core.accelerator.PowerState`) — which is
what makes diurnal scale-down worth the control complexity at all.

The policy is deliberately the classic hysteresis band:

* window utilization above ``scale_up_above`` (or queue depth at or above
  ``scale_up_queue_depth``) wakes ``step`` sleeping chips;
* window utilization below ``scale_down_below`` parks ``step`` idle
  chips (never below ``min_chips``, never a busy chip — scale-down is
  graceful, in-flight batches always finish);
* anything inside the band holds.

A band with a unique fixed point makes the steady state testable: at
offered load ``lambda`` and deterministic service ``s``, the only fleet
size ``m`` with ``scale_down_below < lambda * s / m < scale_up_above``
is where the controller must settle, whatever the initial fleet — the
cross-validation suite pins exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.validation import require_finite, require_positive, require_positive_int

__all__ = ["Autoscaler"]


@dataclass(frozen=True)
class Autoscaler:
    """Hysteresis-band scaling policy evaluated every ``interval_s``.

    Attributes
    ----------
    interval_s:
        Controller period: how often utilization is sampled and a
        decision taken.  Also the averaging window — utilization is
        measured as busy chip-seconds over awake chip-seconds since the
        previous tick.
    scale_up_above / scale_down_below:
        The hysteresis band on window utilization.  Must leave a gap
        (``down < up``) or the controller oscillates every tick.
    scale_up_queue_depth:
        Optional backlog override: a queue at or above this depth at a
        tick wakes chips even if the (awake-normalized) utilization
        looks acceptable — the signal that the *awake* fleet is simply
        too small.
    min_chips / max_chips:
        Fleet-size clamps.  ``min_chips`` keeps the system live (at
        least one chip always dispatchable); ``max_chips`` of ``None``
        means the physical fleet size bounds growth.
    step:
        Chips woken or parked per decision.
    initial_chips:
        Chips awake at time zero (the rest start parked).  ``None``
        starts the whole fleet awake — the conservative default that
        leaves cold-start behaviour opt-in.
    """

    interval_s: float = 0.05
    scale_up_above: float = 0.85
    scale_down_below: float = 0.55
    scale_up_queue_depth: int | None = None
    min_chips: int = 1
    max_chips: int | None = None
    step: int = 1
    initial_chips: int | None = None

    def __post_init__(self) -> None:
        # an infinite period never ticks: the controller would silently hold
        require_finite(require_positive(self.interval_s, "interval_s"), "interval_s")
        require_positive_int(self.step, "step")
        require_positive_int(self.min_chips, "min_chips")
        if not 0.0 < self.scale_down_below < self.scale_up_above <= 1.0:
            raise ValueError(
                f"need 0 < scale_down_below < scale_up_above <= 1, got "
                f"({self.scale_down_below}, {self.scale_up_above})"
            )
        if self.scale_up_queue_depth is not None:
            require_positive_int(self.scale_up_queue_depth, "scale_up_queue_depth")
        if self.max_chips is not None:
            require_positive_int(self.max_chips, "max_chips")
            if self.max_chips < self.min_chips:
                raise ValueError(
                    f"max_chips {self.max_chips} below min_chips {self.min_chips}"
                )
        if self.initial_chips is not None:
            require_positive_int(self.initial_chips, "initial_chips")

    def initial(self, num_chips: int) -> int:
        """Chips awake at time zero, clamped to the policy's bounds."""
        initial = num_chips if self.initial_chips is None else self.initial_chips
        return max(self.min_chips, min(initial, self.bound(num_chips)))

    def bound(self, num_chips: int) -> int:
        """Largest fleet the policy may keep awake."""
        if self.max_chips is None:
            return num_chips
        return min(self.max_chips, num_chips)

    def decide(self, utilization: float, queue_depth: int, active_chips: int) -> int:
        """Signed chip-count delta for this window (before clamping).

        ``utilization`` is the window's busy share of *awake* chip time,
        ``queue_depth`` the backlog at the tick and ``active_chips`` the
        chips currently awake or waking.  The caller clamps the returned
        ``+-step`` to ``[min_chips, bound()]`` and to the chips actually
        available to park or wake.
        """
        backlogged = (
            self.scale_up_queue_depth is not None
            and queue_depth >= self.scale_up_queue_depth
        )
        if utilization >= self.scale_up_above or backlogged:
            return self.step
        if utilization <= self.scale_down_below:
            return -self.step
        return 0
