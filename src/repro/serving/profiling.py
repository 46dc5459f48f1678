"""First-party hot-path counters for the serving simulator.

Perf work on the simulator (this PR's sharding, and whatever comes next)
needs numbers that do not require strapping an external profiler to a
discrete-event loop: how many events a run scheduled and popped, how many
dispatch sweeps it made, how many batches and requests came out, and how
long the wall clock said it took.  The :class:`EventLoop` already counts
its own traffic (one integer increment per event); this module collects
those counters per run.

The global :data:`PROFILER` is off by default and costs one attribute
check per *run* (not per event) while disabled.  The experiments CLI
turns it on with ``--profile`` and prints the table after the run; tests
and library users can use a private :class:`Profiler` instance instead.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["RunProfile", "Profiler", "PROFILER"]


@dataclass(frozen=True, slots=True)
class RunProfile:
    """Hot-path counters of one simulator run.

    The pricing/template cache deltas and per-tier dispatch counts are
    zero for runs without tiered-fidelity models — the fields exist so
    ``--profile`` can show how often a run priced dispatches from the
    analytic pricing cache vs. resampled a cached executed-schedule
    template, and how many cold template builds it paid.  Likewise the
    routing counters (front-end route decisions, batches stolen by idle
    peers, deepest single chip queue) stay zero for global-queue runs.

    ``events_scheduled`` and ``events_popped`` count heap events only.
    Open-loop arrivals, which the simulator reads from its sorted request
    list, never enter the heap and are not counted; network hops, which
    land from per-latency FIFO lanes, are not counted either.  A plain
    dispatch sweep run in place is counted in ``dispatch_calls`` but is no
    event.
    """

    label: str
    events_scheduled: int
    events_popped: int
    dispatch_calls: int
    num_requests: int
    num_batches: int
    wall_s: float
    pricing_hits: int = 0
    pricing_misses: int = 0
    template_hits: int = 0
    template_misses: int = 0
    analytic_batches: int = 0
    executed_batches: int = 0
    routed_requests: int = 0
    stolen_batches: int = 0
    peak_queue_depth: int = 0

    @property
    def requests_per_s(self) -> float:
        """Completed requests per wall-clock second of simulation."""
        return self.num_requests / self.wall_s if self.wall_s > 0 else float("inf")


class Profiler:
    """Collects :class:`RunProfile` rows; disabled unless :attr:`enabled`."""

    def __init__(self) -> None:
        self.enabled = False
        self.runs: list[RunProfile] = []

    def record(self, profile: RunProfile) -> None:
        """Keep a run's counters (no-op while disabled)."""
        if self.enabled:
            self.runs.append(profile)

    def clear(self) -> None:
        """Drop all collected rows."""
        self.runs.clear()

    def format_table(self) -> str:
        """Printable counter table, one row per recorded run."""
        if not self.runs:
            return "profiler: no runs recorded"
        header = (
            f"{'run':<28} {'events':>10} {'popped':>10} {'dispatch':>9} "
            f"{'requests':>9} {'batches':>8} {'wall_s':>8} {'req/s':>10} "
            f"{'price h/m':>11} {'tmpl h/m':>9} {'tiers a/x':>11} "
            f"{'routed':>8} {'stolen':>7} {'peak q':>7}"
        )
        lines = [header, "-" * len(header)]
        for run in self.runs:
            lines.append(
                f"{run.label:<28} {run.events_scheduled:>10} {run.events_popped:>10} "
                f"{run.dispatch_calls:>9} {run.num_requests:>9} {run.num_batches:>8} "
                f"{run.wall_s:>8.3f} {run.requests_per_s:>10.0f} "
                f"{f'{run.pricing_hits}/{run.pricing_misses}':>11} "
                f"{f'{run.template_hits}/{run.template_misses}':>9} "
                f"{f'{run.analytic_batches}/{run.executed_batches}':>11} "
                f"{run.routed_requests:>8} {run.stolen_batches:>7} "
                f"{run.peak_queue_depth:>7}"
            )
        return "\n".join(lines)


#: Process-global profiler the experiments CLI flips on with ``--profile``.
PROFILER = Profiler()
