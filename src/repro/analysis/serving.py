"""Serving-level analysis: load sweeps, fault injection and queueing theory.

Each analyzer states one experiment: its fleet, traffic and sweep points
are constants of the experiment, so the constructors take no arguments.
Every serving experiment (E10–E14) dispatches through the same batch-8,
2 ms :data:`BATCHER`.

:class:`ServingAnalyzer` drives the request-level simulator
(:mod:`repro.serving`) over a sweep of offered loads on a STAR chip fleet
and tabulates what a capacity planner needs — sustained throughput, tail
latencies, queue depths, fleet utilization and energy per query — plus an
M/D/1 Pollaczek–Khinchine cross-validation row for the single-chip,
no-batching limit (the regime where the simulator has a closed form to
answer to).  This is the E10 experiment.

:class:`FaultServingAnalyzer` is the E11 experiment: the same fleet under
chip failure/repair processes (:mod:`repro.serving.faults`), sweeping
steady-state capacity loss with two control policies per point — graceful
degradation (deadline shedding, bounded queue, degraded batch cap) versus
the unprotected queue — against the fault-free baseline, so the report
shows directly what admission control buys when hardware misbehaves.

:class:`ShardedScalingAnalyzer` measures the multi-process scale-out
(:mod:`repro.serving.sharded`): wall-clock throughput of the same
workload at growing shard counts, with parallel efficiency against the
one-shard run.  Its table is wall-clock (machine-dependent), so it backs
the README scaling table and the ``examples/sharded_serving.py`` demo but
is deliberately not a golden experiment.

:class:`SLOServingAnalyzer` is the E12 experiment — the serving control
plane end to end.  Three sections: an EDF-vs-FIFO load sweep on bursty
(on/off MMPP) two-class traffic where deadline skew makes dispatch order
matter; a closed-loop run of think-time clients cross-validated against
the machine-repair M/M/1//N closed form; and a diurnal autoscaling
comparison where a hysteresis controller parks chips into non-volatile
deep sleep overnight and the energy ledger shows what that buys against
the always-on fleet.

:class:`TieredServingAnalyzer` is the E13 experiment: the same fleet and
request stream served at growing fidelity-sampling fractions — analytic
only, then 5%/25%/100% of dispatches priced on cached executed-schedule
templates with per-layer jitter — showing pipeline-level tail variation
propagating into request-level p99 at near-analytic cost.

:class:`RoutingServingAnalyzer` is the E14 experiment: a skewed
sequence-length trace (mostly short interactive requests, a heavy minority
of long ones) over a mixed big/small-tile fleet, served once per routing
arm — the global-FIFO baseline, then per-chip queues under round-robin,
join-shortest-queue, and shortest-expected-delay routing (with and
without work stealing).  The global queue pads every mixed batch to its
longest member and routinely parks long sequences on small-tile chips, so
it collapses at loads the cost-oracle router sustains: SED prices each
candidate on each chip's batch-aware pricing, sending long requests to
the big-tile chip, and stealing keeps the fleet work-conserving on top.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, replace

from repro.serving.arrivals import (
    ClosedLoopClients,
    DayCurveArrivals,
    MMPPArrivals,
    PoissonArrivals,
)
from repro.serving.autoscale import Autoscaler
from repro.serving.batcher import NO_BATCHING, DynamicBatcher
from repro.serving.faults import AdmissionController, FaultInjector, RetryPolicy
from repro.serving.fleet import (
    ChipFleet,
    ExponentialServiceModel,
    FixedServiceModel,
    LinearServiceModel,
    PricingCache,
    ServiceModel,
    StarServiceModel,
)
from repro.serving.report import ServingReport
from repro.serving.routing import NetworkModel, Router
from repro.serving.sharded import ShardedServingSimulator
from repro.serving.simulator import ServingSimulator
from repro.serving.slo import SLOClass, SLOPolicy
from repro.serving.theory import MachineRepairQueue, MD1Queue
from repro.utils.stats import relative_error

__all__ = [
    "BATCHER",
    "ServingSweepRow",
    "BatchAmortisationRow",
    "BatchCapRow",
    "MD1ValidationRow",
    "ServingAnalyzer",
    "FaultSweepRow",
    "FaultServingAnalyzer",
    "ShardScalingRow",
    "ShardedScalingAnalyzer",
    "SLOSweepRow",
    "ClosedLoopValidationRow",
    "AutoscaleComparisonRow",
    "SLOServingAnalyzer",
    "TieredFidelityRow",
    "TieredServingAnalyzer",
    "RoutingPolicyRow",
    "RoutingServingAnalyzer",
    "sleep_capable_star_model",
]

#: The dispatch policy of every serving experiment: batches of up to 8,
#: released once the oldest request has waited 2 ms.
BATCHER = DynamicBatcher(max_batch_size=8, max_wait_s=2e-3)


@dataclass(frozen=True)
class ServingSweepRow:
    """One offered-load point of the serving sweep."""

    offered_rate_rps: float
    load_factor: float
    report: ServingReport

    @property
    def throughput_rps(self) -> float:
        """Sustained completion rate at this load."""
        return self.report.throughput_rps


@dataclass(frozen=True)
class BatchAmortisationRow:
    """Batch service time vs the linear ``batch x single`` price."""

    batch_size: int
    service_s: float
    per_request_s: float
    linear_s: float

    @property
    def amortisation(self) -> float:
        """Batch service over the linear price (1.0 = no batching benefit)."""
        return self.service_s / self.linear_s if self.linear_s > 0 else 1.0


@dataclass(frozen=True)
class BatchCapRow:
    """One ``DynamicBatcher`` cap at a fixed offered load, for both pricings."""

    max_batch_size: int
    report: ServingReport
    linear_report: ServingReport

    @property
    def throughput_rps(self) -> float:
        """Sustained completion rate under batch-aware pricing."""
        return self.report.throughput_rps


@dataclass(frozen=True)
class MD1ValidationRow:
    """Simulated vs Pollaczek–Khinchine mean wait in the M/D/1 limit."""

    arrival_rate_rps: float
    utilization: float
    simulated_wait_s: float
    theory_wait_s: float

    @property
    def deviation(self) -> float:
        """Relative error of the simulated mean wait."""
        return relative_error(self.simulated_wait_s, self.theory_wait_s)


class ServingAnalyzer:
    """Load sweep + M/D/1 validation of a STAR serving fleet (E10).

    BERT-base at L=128 on a 4-chip fleet behind :data:`BATCHER`; every
    point serves the same seeded Poisson process (2,000 requests, seed 0).
    The M/D/1 validation always runs single-chip, no-batching.
    """

    NUM_CHIPS = 4
    SEQ_LEN = 128

    def __init__(self) -> None:
        self.service_model = StarServiceModel(seq_len=self.SEQ_LEN)

    # ------------------------------------------------------------------ #
    # capacity and sweeps
    # ------------------------------------------------------------------ #
    def request_service_s(self) -> float:
        """Single-request service time of one chip at the analyzer's length."""
        return self.service_model.batch_latency_s(1, self.SEQ_LEN)

    def fleet_capacity_rps(self) -> float:
        """Upper-bound completion rate of the fleet at batch size 1."""
        return self.NUM_CHIPS / self.request_service_s()

    def _requests(self, rate_rps: float, num_requests: int):
        return PoissonArrivals(rate_rps, seq_len=self.SEQ_LEN, seed=0).generate(
            num_requests
        )

    def sweep_rows(self) -> list[ServingSweepRow]:
        """The load sweep at 30%, 60% and 90% of batch-1 fleet capacity."""
        rows = []
        for load_factor in (0.3, 0.6, 0.9):
            rate = load_factor * self.fleet_capacity_rps()
            fleet = ChipFleet(self.service_model, num_chips=self.NUM_CHIPS)
            report = ServingSimulator(fleet, BATCHER).run(self._requests(rate, 2000))
            rows.append(
                ServingSweepRow(offered_rate_rps=rate, load_factor=load_factor, report=report)
            )
        return rows

    # ------------------------------------------------------------------ #
    # batch amortisation
    # ------------------------------------------------------------------ #
    def amortisation_rows(self) -> list[BatchAmortisationRow]:
        """Batch service times against the linear ``batch x single`` price.

        Under batch-aware pricing a dispatched batch programs each
        stationary operand once and double-buffers rows beyond the first
        request, so the ratio falls below 1 as the batch grows; the legacy
        linear model would sit at exactly 1.0 everywhere.
        """
        single = self.service_model.batch_latency_s(1, self.SEQ_LEN)
        rows = []
        for batch in (1, 4, 16, 32):
            service = self.service_model.batch_latency_s(batch, self.SEQ_LEN)
            rows.append(
                BatchAmortisationRow(
                    batch_size=batch,
                    service_s=service,
                    per_request_s=service / batch,
                    linear_s=batch * single,
                )
            )
        return rows

    def batch_cap_rows(self) -> list[BatchCapRow]:
        """Raise the ``DynamicBatcher`` cap (1, 8, 32) at one offered load.

        The offered rate is 80% of the *batch-32 amortised* fleet capacity
        — a load the unbatched fleet cannot sustain — and every cap is
        simulated twice: once on the batch-aware service model and once on
        its :class:`~repro.serving.fleet.LinearServiceModel` wrapper, so
        the table shows what amortised pricing buys at equal hardware and
        equal traffic.
        """
        amortised_capacity = self.NUM_CHIPS * 32 / self.service_model.batch_latency_s(
            32, self.SEQ_LEN
        )
        requests = self._requests(0.8 * amortised_capacity, 2000)
        rows = []
        for cap in (1, 8, 32):
            batcher = replace(BATCHER, max_batch_size=cap)
            report = ServingSimulator(
                ChipFleet(self.service_model, num_chips=self.NUM_CHIPS), batcher
            ).run(requests)
            linear_report = ServingSimulator(
                ChipFleet(LinearServiceModel(self.service_model), num_chips=self.NUM_CHIPS),
                batcher,
            ).run(requests)
            rows.append(
                BatchCapRow(max_batch_size=cap, report=report, linear_report=linear_report)
            )
        return rows

    # ------------------------------------------------------------------ #
    # M/D/1 cross-validation
    # ------------------------------------------------------------------ #
    def md1_validation(self) -> MD1ValidationRow:
        """Single-chip no-batching run at rho=0.7 vs the Pollaczek–Khinchine formula."""
        utilization = 0.7
        service = self.request_service_s()
        rate = utilization / service
        fleet = ChipFleet(self.service_model, num_chips=1)
        report = ServingSimulator(fleet, NO_BATCHING).run(self._requests(rate, 30000))
        theory = MD1Queue(arrival_rate_rps=rate, service_s=service)
        return MD1ValidationRow(
            arrival_rate_rps=rate,
            utilization=utilization,
            simulated_wait_s=report.mean_wait_s,
            theory_wait_s=theory.mean_wait_s,
        )

    # ------------------------------------------------------------------ #
    # presentation
    # ------------------------------------------------------------------ #
    def format_amortisation_table(self) -> str:
        """Printable batch-amortisation table."""
        lines = [
            f"{'batch':>6} {'service (ms)':>13} {'per-req (ms)':>13} "
            f"{'linear (ms)':>12} {'x linear':>9}"
        ]
        for row in self.amortisation_rows():
            lines.append(
                f"{row.batch_size:>6d} {row.service_s * 1e3:>13.3f} "
                f"{row.per_request_s * 1e3:>13.3f} {row.linear_s * 1e3:>12.3f} "
                f"{row.amortisation:>9.3f}"
            )
        return "\n".join(lines)

    def format_cap_table(self) -> str:
        """Printable batcher-cap sweep: batch-aware vs linear pricing."""
        lines = [
            f"{'cap':>5} {'served (r/s)':>13} {'p99 (ms)':>9} {'batch':>6} "
            f"{'util':>6} {'mJ/query':>9} | {'linear r/s':>11} {'linear p99':>11}"
        ]
        for row in self.batch_cap_rows():
            report, linear = row.report, row.linear_report
            lines.append(
                f"{row.max_batch_size:>5d} {report.throughput_rps:>13.1f} "
                f"{report.p99_latency_s * 1e3:>9.2f} {report.mean_batch_size:>6.2f} "
                f"{report.mean_utilization * 100:>5.1f}% "
                f"{report.energy_per_query_j * 1e3:>9.2f} | "
                f"{linear.throughput_rps:>11.1f} {linear.p99_latency_s * 1e3:>11.2f}"
            )
        return "\n".join(lines)

    def format_table(self) -> str:
        """Printable sweep table plus the M/D/1 validation line."""
        lines = [
            f"{'load':>6} {'rate (r/s)':>11} {'served':>8} {'p50 (ms)':>9} "
            f"{'p95 (ms)':>9} {'p99 (ms)':>9} {'batch':>6} {'util':>6} {'mJ/query':>9}"
        ]
        for row in self.sweep_rows():
            report = row.report
            lines.append(
                f"{row.load_factor:>6.2f} {row.offered_rate_rps:>11.1f} "
                f"{report.throughput_rps:>8.1f} {report.p50_latency_s * 1e3:>9.2f} "
                f"{report.p95_latency_s * 1e3:>9.2f} {report.p99_latency_s * 1e3:>9.2f} "
                f"{report.mean_batch_size:>6.2f} {report.mean_utilization * 100:>5.1f}% "
                f"{report.energy_per_query_j * 1e3:>9.2f}"
            )
        check = self.md1_validation()
        lines.append(
            f"M/D/1 check (1 chip, no batching, rho={check.utilization:.2f}): "
            f"simulated wait {check.simulated_wait_s * 1e3:.3f} ms vs "
            f"P-K {check.theory_wait_s * 1e3:.3f} ms "
            f"({check.deviation * 100:.2f}% off)"
        )
        return "\n".join(lines)


@dataclass(frozen=True)
class FaultSweepRow:
    """One capacity-loss point of the fault sweep, under both policies.

    ``shed_report`` runs graceful degradation (deadline shedding, bounded
    queue, degraded batch cap); ``queue_report`` runs the same traffic and
    the same failure history with an unprotected queue (retries without a
    deadline, unbounded depth) — the arm whose queue blows up.
    """

    capacity_loss: float
    mtbf_s: float
    shed_report: ServingReport
    queue_report: ServingReport


class FaultServingAnalyzer:
    """Graceful-degradation sweep of a fault-injected STAR fleet (E11).

    E10's fleet (4 chips, BERT-base at L=128, :data:`BATCHER`) takes 3,000
    Poisson requests (seed 0) at 95% of its amortised capacity at the
    batcher's cap; the sweep raises the steady-state capacity loss
    (5%, 10%, 20%) of a per-chip MTBF/MTTR fault process whose repair
    cost is the chip's full-model operand reprogramming time plus 50 ms
    of detection/drain.  Each point is simulated twice on identical
    traffic and failure seeds:

    * *shed* — :class:`~repro.serving.faults.RetryPolicy` with a 250 ms
      per-request deadline, deadline-based queue shedding, a bounded
      queue sized to the deadline (requests deeper than
      ``deadline x rate`` cannot make it anyway) and a degraded-mode
      batch cap;
    * *queue* — retries without deadlines on an unbounded queue: the
      policy-free baseline whose backlog and tail latency blow up once the
      surviving capacity drops below the offered load.
    """

    NUM_CHIPS = 4
    SEQ_LEN = 128
    LOAD_FACTOR = 0.95
    DETECTION_S = 0.05
    DEADLINE_S = 0.25

    def __init__(self) -> None:
        self.service_model = StarServiceModel(seq_len=self.SEQ_LEN)

    # ------------------------------------------------------------------ #
    # derived quantities
    # ------------------------------------------------------------------ #
    def fleet(self) -> ChipFleet:
        """The simulated fleet (fresh per run; pricing is cached anyway)."""
        return ChipFleet(self.service_model, num_chips=self.NUM_CHIPS)

    def repair_s(self) -> float:
        """Per-failure tile-bank reprogramming time of one chip."""
        return self.fleet().reprogram_latency_s(0)

    def downtime_s(self) -> float:
        """Total downtime of one failure: detection/drain plus reprogram."""
        return self.DETECTION_S + self.repair_s()

    def amortised_capacity_rps(self) -> float:
        """Fleet completion-rate bound at the batcher's full batch size."""
        cap = BATCHER.max_batch_size
        return self.NUM_CHIPS * cap / self.service_model.batch_latency_s(
            cap, self.SEQ_LEN
        )

    def offered_rate_rps(self) -> float:
        """The sweep's fixed offered load."""
        return self.LOAD_FACTOR * self.amortised_capacity_rps()

    def _requests(self):
        return PoissonArrivals(
            self.offered_rate_rps(), seq_len=self.SEQ_LEN, seed=0
        ).generate(3000)

    # ------------------------------------------------------------------ #
    # runs
    # ------------------------------------------------------------------ #
    def baseline(self) -> ServingReport:
        """The fault-free run every degradation curve is measured against."""
        return ServingSimulator(self.fleet(), BATCHER).run(self._requests())

    def row_for(self, capacity_loss: float) -> FaultSweepRow:
        """Both policy arms at one steady-state capacity-loss level."""
        injector = FaultInjector.for_capacity_loss(
            capacity_loss,
            repair_s=self.repair_s(),
            detection_s=self.DETECTION_S,
            seed=1,
        )
        requests = self._requests()
        shed_report = ServingSimulator(
            self.fleet(),
            BATCHER,
            faults=injector,
            retry=RetryPolicy(
                max_attempts=3,
                backoff_base_s=2e-3,
                backoff_multiplier=2.0,
                jitter=0.25,
                deadline_s=self.DEADLINE_S,
            ),
            admission=AdmissionController(
                max_queue_depth=math.ceil(self.DEADLINE_S * self.offered_rate_rps()),
                shed_expired=True,
                degraded_max_batch=BATCHER.max_batch_size // 2,
            ),
        ).run(requests)
        queue_report = ServingSimulator(
            self.fleet(),
            BATCHER,
            faults=injector,
            retry=RetryPolicy(
                max_attempts=6,
                backoff_base_s=2e-3,
                backoff_multiplier=2.0,
                jitter=0.25,
                deadline_s=None,
            ),
        ).run(requests)
        return FaultSweepRow(
            capacity_loss=capacity_loss,
            mtbf_s=injector.mtbf_s,
            shed_report=shed_report,
            queue_report=queue_report,
        )

    def sweep_rows(self) -> list[FaultSweepRow]:
        """The graceful-degradation curve over rising capacity loss."""
        return [self.row_for(loss) for loss in (0.05, 0.10, 0.20)]

    # ------------------------------------------------------------------ #
    # presentation
    # ------------------------------------------------------------------ #
    def format_table(self) -> str:
        """Printable degradation curve: shed vs unprotected queue."""
        baseline = self.baseline()
        lines = [
            f"offered load            : {self.offered_rate_rps():.0f} req/s "
            f"({self.LOAD_FACTOR:.2f} of amortised batch-"
            f"{BATCHER.max_batch_size} capacity "
            f"{self.amortised_capacity_rps():.0f} req/s)",
            f"repair cost per failure : {self.repair_s() * 1e3:.3f} ms tile-bank "
            f"reprogram + {self.DETECTION_S * 1e3:.0f} ms detection/drain = "
            f"{self.downtime_s() * 1e3:.1f} ms",
            f"baseline (no faults)    : goodput {baseline.goodput_rps:.1f} req/s, "
            f"p99 {baseline.p99_latency_s * 1e3:.2f} ms, "
            f"queue peak {baseline.queue_peak}",
            "",
            f"{'loss':>5} {'mtbf(s)':>8} | {'shed goodput':>12} {'vs base':>8} "
            f"{'p99(ms)':>8} {'shed':>5} {'aband':>6} {'avail':>6} | "
            f"{'queue goodput':>13} {'p99(ms)':>8} {'qpeak':>6}",
        ]
        for row in self.sweep_rows():
            shed, queue = row.shed_report, row.queue_report
            lines.append(
                f"{row.capacity_loss:>5.2f} {row.mtbf_s:>8.3f} | "
                f"{shed.goodput_rps:>12.1f} "
                f"{shed.goodput_rps / baseline.goodput_rps * 100:>7.1f}% "
                f"{shed.p99_latency_s * 1e3:>8.2f} {shed.num_shed:>5d} "
                f"{shed.num_abandoned:>6d} "
                f"{shed.fleet_availability * 100:>5.1f}% | "
                f"{queue.goodput_rps:>13.1f} {queue.p99_latency_s * 1e3:>8.2f} "
                f"{queue.queue_peak:>6d}"
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class ShardScalingRow:
    """One shard count of the scale-out measurement."""

    num_shards: int
    wall_s: float
    baseline_wall_s: float
    report: ServingReport

    @property
    def simulated_rps(self) -> float:
        """Completed requests per wall-clock second of simulation."""
        return self.report.num_requests / self.wall_s if self.wall_s > 0 else float("inf")

    @property
    def speedup(self) -> float:
        """Wall-clock speedup over the one-shard run of the same workload."""
        return self.baseline_wall_s / self.wall_s if self.wall_s > 0 else float("inf")

    @property
    def efficiency(self) -> float:
        """Speedup per shard (1.0 = perfect linear scaling)."""
        return self.speedup / self.num_shards


class ShardedScalingAnalyzer:
    """Wall-clock scaling of the sharded simulator over 1, 2, 4 and 8 shards.

    Holds the *per-chip* load fixed while growing the fleet with the shard
    count (one 1 ms chip per shard at 70% load, 100,000 requests per
    point), so every shard simulates the same amount of work and the
    measurement isolates parallel overhead.  Results are wall-clock and
    machine-dependent — this analyzer backs the README scaling table and
    the demo, not a golden report.
    """

    LOAD_FACTOR = 0.7
    NUM_REQUESTS = 100_000

    def __init__(self) -> None:
        self.service_model = FixedServiceModel(1e-3, request_energy_j=1e-4)

    def _timed_run(self, num_shards: int) -> tuple[float, ServingReport]:
        """Wall time and merged report of one shard count."""
        rate = self.LOAD_FACTOR / self.service_model.batch_latency_s(1, 128) * num_shards
        simulator = ShardedServingSimulator(
            ChipFleet(self.service_model, num_chips=num_shards),
            num_shards=num_shards,
            parallel=num_shards > 1,
        )
        start = time.perf_counter()
        report = simulator.run_poisson(
            PoissonArrivals(rate, seq_len=128, seed=0), self.NUM_REQUESTS
        )
        return time.perf_counter() - start, report

    def sweep_rows(self) -> list[ShardScalingRow]:
        """The scaling curve, anchored at the one-shard run."""
        rows: list[ShardScalingRow] = []
        for count in (1, 2, 4, 8):
            wall, report = self._timed_run(count)
            baseline = rows[0].wall_s if rows else wall
            rows.append(ShardScalingRow(count, wall, baseline, report))
        return rows

    def format_table(self) -> str:
        """Printable scaling table (wall-clock; machine-dependent)."""
        lines = [
            f"machine: {os.cpu_count()} CPU(s); "
            f"{self.NUM_REQUESTS} requests per point, "
            f"1 chip(s)/shard at load {self.LOAD_FACTOR:.2f}",
            f"{'shards':>7} {'wall (s)':>9} {'sim req/s':>10} {'speedup':>8} "
            f"{'efficiency':>11} {'p50 (ms)':>9} {'p99 (ms)':>9}",
        ]
        for row in self.sweep_rows():
            lines.append(
                f"{row.num_shards:>7d} {row.wall_s:>9.2f} {row.simulated_rps:>10.0f} "
                f"{row.speedup:>8.2f} {row.efficiency:>11.2f} "
                f"{row.report.p50_latency_s * 1e3:>9.3f} "
                f"{row.report.p99_latency_s * 1e3:>9.3f}"
            )
        return "\n".join(lines)


def sleep_capable_star_model() -> StarServiceModel:
    """A stock L=128 STAR service model whose chip has a deep-sleep power state.

    The default :class:`~repro.core.accelerator.ChipResources` carries no
    :class:`~repro.core.accelerator.PowerState`, so parking a chip saves
    nothing beyond idle.  Autoscaling experiments want the non-volatile
    story: retention-level sleep power, a drain latency into sleep and a
    supply-ramp wake priced at the re-bias energy.  Timing is untouched —
    the model prices batches identically to ``StarServiceModel()``.
    """
    from repro.core.accelerator import ChipResources, PowerState, STARAccelerator
    from repro.core.batch_cost import BatchCostModel

    resources = ChipResources(power_state=PowerState())
    accelerator = STARAccelerator(
        resources=resources, batch_cost=BatchCostModel.streamed()
    )
    return StarServiceModel(accelerator=accelerator)


@dataclass(frozen=True)
class SLOSweepRow:
    """One offered-load point of the EDF-vs-FIFO skew sweep.

    Both reports serve the *same* tagged bursty request stream; only the
    batcher's drain order differs, so any attainment gap is pure
    scheduling.
    """

    load_factor: float
    offered_rate_rps: float
    fifo_report: ServingReport
    edf_report: ServingReport

    @property
    def fifo_attainment(self) -> float:
        """Overall deadline attainment of the FIFO arm."""
        return self.fifo_report.deadline_attainment()

    @property
    def edf_attainment(self) -> float:
        """Overall deadline attainment of the EDF arm."""
        return self.edf_report.deadline_attainment()


@dataclass(frozen=True)
class ClosedLoopValidationRow:
    """Closed-loop simulation vs the machine-repair M/M/1//N closed form."""

    num_clients: int
    think_s: float
    service_s: float
    simulated_throughput_rps: float
    simulated_latency_s: float
    theory_throughput_rps: float
    theory_latency_s: float

    @property
    def throughput_deviation(self) -> float:
        """Relative error of the simulated throughput."""
        return relative_error(
            self.simulated_throughput_rps, self.theory_throughput_rps
        )

    @property
    def latency_deviation(self) -> float:
        """Relative error of the simulated mean response time."""
        return relative_error(self.simulated_latency_s, self.theory_latency_s)


@dataclass(frozen=True)
class AutoscaleComparisonRow:
    """Autoscaled vs always-on fleet on identical diurnal traffic."""

    autoscaled_report: ServingReport
    always_on_report: ServingReport

    @staticmethod
    def _overhead_j(report: ServingReport) -> float:
        """Non-compute energy: idle leakage, sleep retention, wake bursts."""
        return report.idle_energy_j + report.sleep_energy_j + report.wake_energy_j

    @property
    def total_saving(self) -> float:
        """Fractional total-energy saving of autoscaling."""
        base = self.always_on_report.total_energy_j
        return 1.0 - self.autoscaled_report.total_energy_j / base if base > 0 else 0.0

    @property
    def overhead_saving(self) -> float:
        """Fractional saving on the non-compute (idle/sleep/wake) energy.

        Active energy is pinned by the traffic, so this is the share the
        controller can actually influence.
        """
        base = self._overhead_j(self.always_on_report)
        return 1.0 - self._overhead_j(self.autoscaled_report) / base if base > 0 else 0.0


class SLOServingAnalyzer:
    """The serving control plane end to end (E12).

    Three sections, all on :func:`sleep_capable_star_model` chips serving
    BERT-base at L=128:

    * **EDF vs FIFO under bursty skewed traffic** — two SLO classes
      (interactive with a 60 ms deadline, batch with 1 s) tagged
      i.i.d. half and half onto one on/off-MMPP stream of 3,000 requests
      (bursts at 1.6x the mean rate lasting ~200 ms, quiet periods at
      0.2x, duty cycle solved so the long-run mean is exact), served on
      2 chips twice per load point with only the batcher's drain order
      changed.  Bursts pile up a backlog; FIFO makes interactive requests
      queue through it while EDF lifts them past the batch class, so
      attainment separates as load grows.  The interactive deadline
      clears the full-batch service time — non-preemptive batch-EDF
      cannot save a request whose own batch already overruns it.
    * **Closed-loop cross-validation** — 8 think-time clients on one chip
      with exponential service is exactly the machine-repair M/M/1//N
      queue; the simulated throughput and response time answer to the
      closed form.
    * **Diurnal autoscaling** — a stylized day curve over a 4-chip fleet
      sized for peak, served with and without the hysteresis autoscaler.
      The energy ledger splits what parking into non-volatile deep sleep
      saves (idle leakage becomes retention power) from what traffic
      pins (active compute).
    """

    NUM_CHIPS = 2
    SEQ_LEN = 128
    INTERACTIVE_SHARE = 0.5
    BURST_RATIO = 1.6
    BURST_S = 0.2
    POLICY = SLOPolicy(
        (SLOClass("interactive", deadline_s=0.06), SLOClass("batch", deadline_s=1.0))
    )

    def __init__(self) -> None:
        self.service_model = sleep_capable_star_model()

    # ------------------------------------------------------------------ #
    # derived quantities
    # ------------------------------------------------------------------ #
    def amortised_capacity_rps(self) -> float:
        """Fleet completion-rate bound at the batcher's full batch size."""
        cap = BATCHER.max_batch_size
        return self.NUM_CHIPS * cap / self.service_model.batch_latency_s(
            cap, self.SEQ_LEN
        )

    def _tagged_requests(self, mean_rate_rps: float):
        """The on/off burst process with an exact long-run mean rate, tagged."""
        burst = self.BURST_RATIO * mean_rate_rps
        base = 0.2 * mean_rate_rps
        arrivals = MMPPArrivals.on_off(
            burst_rate_rps=burst,
            base_rate_rps=base,
            burst_s=self.BURST_S,
            duty=(mean_rate_rps - base) / (burst - base),
            seq_len=self.SEQ_LEN,
            seed=0,
        )
        return self.POLICY.tag_random(
            arrivals.generate(3000),
            weights=(self.INTERACTIVE_SHARE, 1.0 - self.INTERACTIVE_SHARE),
            seed=1,
        )

    # ------------------------------------------------------------------ #
    # EDF vs FIFO skew sweep
    # ------------------------------------------------------------------ #
    def row_for(self, load_factor: float) -> SLOSweepRow:
        """Both drain orders at one offered load on identical traffic."""
        rate = load_factor * self.amortised_capacity_rps()
        requests = self._tagged_requests(rate)

        def serve(batcher: DynamicBatcher) -> ServingReport:
            fleet = ChipFleet(self.service_model, num_chips=self.NUM_CHIPS)
            return ServingSimulator(fleet, batcher).run(requests)

        return SLOSweepRow(
            load_factor=load_factor,
            offered_rate_rps=rate,
            fifo_report=serve(BATCHER),
            edf_report=serve(replace(BATCHER, order="edf")),
        )

    def sweep_rows(self) -> list[SLOSweepRow]:
        """The skew sweep over rising offered load."""
        return [self.row_for(factor) for factor in (0.6, 0.8, 0.9)]

    # ------------------------------------------------------------------ #
    # closed-loop cross-validation
    # ------------------------------------------------------------------ #
    def closed_loop_validation(self) -> ClosedLoopValidationRow:
        """8 clients (Z=10 ms) on one 1 ms chip vs the machine-repair M/M/1//N form."""
        num_clients, think_s, service_s = 8, 0.010, 0.001
        clients = ClosedLoopClients(
            num_clients=num_clients, think_s=think_s, seq_len=self.SEQ_LEN, seed=2
        )
        model = ExponentialServiceModel(mean_s=service_s, request_energy_j=1e-4, seed=3)
        report = ServingSimulator(
            ChipFleet(model, num_chips=1), NO_BATCHING
        ).run_closed_loop(clients, 15000)
        theory = MachineRepairQueue(
            num_clients=num_clients, think_s=think_s, service_s=service_s
        )
        return ClosedLoopValidationRow(
            num_clients=num_clients,
            think_s=think_s,
            service_s=service_s,
            simulated_throughput_rps=report.throughput_rps,
            simulated_latency_s=report.mean_latency_s,
            theory_throughput_rps=theory.throughput_rps,
            theory_latency_s=theory.mean_latency_s,
        )

    # ------------------------------------------------------------------ #
    # diurnal autoscaling
    # ------------------------------------------------------------------ #
    def autoscale_comparison(self) -> AutoscaleComparisonRow:
        """One compressed day on 4 chips with and without the autoscaler.

        A 12 s period compresses the 24-hour curve so 6,000 requests at a
        500 req/s mean span whole day-night swings; the fleet is sized for
        the peak, so the trough leaves most of it idle — the autoscaler's
        whole opportunity.
        """
        arrivals = DayCurveArrivals(
            mean_rate_rps=500.0, period_s=12.0, seq_len=self.SEQ_LEN, seed=4
        )
        requests = arrivals.generate(6000)
        autoscaler = Autoscaler(
            interval_s=0.05,
            scale_up_above=0.85,
            scale_down_below=0.55,
            scale_up_queue_depth=64,
            min_chips=1,
        )
        autoscaled = ServingSimulator(
            ChipFleet(self.service_model, num_chips=4), BATCHER, autoscaler=autoscaler
        ).run(requests)
        always_on = ServingSimulator(
            ChipFleet(self.service_model, num_chips=4), BATCHER
        ).run(requests)
        return AutoscaleComparisonRow(
            autoscaled_report=autoscaled, always_on_report=always_on
        )

    # ------------------------------------------------------------------ #
    # presentation
    # ------------------------------------------------------------------ #
    def format_table(self) -> str:
        """Printable control-plane report: sweep, crossval, autoscale."""
        policy = self.POLICY
        lines = [
            f"traffic : on/off MMPP bursts at {self.BURST_RATIO:.1f}x mean "
            f"(~{self.BURST_S * 1e3:.0f} ms), "
            f"{self.INTERACTIVE_SHARE * 100:.0f}% interactive, "
            f"{self.NUM_CHIPS} chip(s), batch cap {BATCHER.max_batch_size}",
            f"classes : interactive {policy.deadline_of(0) * 1e3:.0f} ms, "
            f"batch {policy.deadline_of(1) * 1e3:.0f} ms "
            f"(amortised capacity {self.amortised_capacity_rps():.0f} req/s)",
            "",
            f"{'load':>5} {'rate (r/s)':>11} | {'fifo att':>9} {'inter':>6} "
            f"{'batch':>6} {'p99(ms)':>8} | {'edf att':>8} {'inter':>6} "
            f"{'batch':>6} {'p99(ms)':>8}",
        ]
        for row in self.sweep_rows():
            fifo, edf = row.fifo_report, row.edf_report
            lines.append(
                f"{row.load_factor:>5.2f} {row.offered_rate_rps:>11.1f} | "
                f"{row.fifo_attainment:>9.3f} {fifo.deadline_attainment(0):>6.3f} "
                f"{fifo.deadline_attainment(1):>6.3f} "
                f"{fifo.p99_latency_s * 1e3:>8.2f} | "
                f"{row.edf_attainment:>8.3f} {edf.deadline_attainment(0):>6.3f} "
                f"{edf.deadline_attainment(1):>6.3f} "
                f"{edf.p99_latency_s * 1e3:>8.2f}"
            )
        check = self.closed_loop_validation()
        lines.append(
            f"closed-loop check ({check.num_clients} clients, "
            f"Z={check.think_s * 1e3:.0f} ms, s={check.service_s * 1e3:.0f} ms): "
            f"X {check.simulated_throughput_rps:.1f} vs M/M/1//N "
            f"{check.theory_throughput_rps:.1f} req/s "
            f"({check.throughput_deviation * 100:.2f}% off), "
            f"R {check.simulated_latency_s * 1e3:.3f} vs "
            f"{check.theory_latency_s * 1e3:.3f} ms "
            f"({check.latency_deviation * 100:.2f}% off)"
        )
        autoscale = self.autoscale_comparison()
        auto, base = autoscale.autoscaled_report, autoscale.always_on_report
        lines.append(
            f"diurnal autoscale ({base.num_chips} chips): "
            f"mean awake {auto.mean_awake_chips:.2f}, "
            f"{auto.num_scale_events} transitions, "
            f"energy {auto.total_energy_j:.1f} vs {base.total_energy_j:.1f} J "
            f"always-on ({autoscale.total_saving * 100:.1f}% total, "
            f"{autoscale.overhead_saving * 100:.1f}% of idle+sleep+wake), "
            f"p99 {auto.p99_latency_s * 1e3:.2f} vs "
            f"{base.p99_latency_s * 1e3:.2f} ms"
        )
        return "\n".join(lines)


@dataclass(frozen=True)
class TieredFidelityRow:
    """One sampling fraction on identical arrivals and base pricing."""

    sample_fraction: float
    report: ServingReport

    @property
    def executed_fraction(self) -> float:
        """Realized fraction of batches priced on the executed tier."""
        return self.report.executed_batch_fraction


class TieredServingAnalyzer:
    """Fidelity tiering on one fleet and one request stream (E13).

    Serves the *same* Poisson stream (2,000 BERT-base requests at L=256,
    seed 0, at half the amortised capacity of 2 chips behind
    :data:`BATCHER`) once per sampling fraction: the analytic-only
    baseline (``sample_fraction = 0``, bit-identical to a plain
    :class:`~repro.serving.fleet.StarServiceModel` fleet), then 5%, 25%
    and 100% of dispatches priced on cached executed-schedule templates
    (:mod:`repro.core.schedule_cache`) with per-layer lognormal jitter of
    sigma 0.3.  Because the executed tier's draws are bounded below by
    the jitter-free critical path while the analytic tier never moves,
    the sampled runs' p50/p99 rise with the fraction — the pipeline-level
    tail variation the analytic model cannot see propagating into
    request-level percentiles.

    Deterministic by construction (seeded arrivals, seeded sampling
    streams, no wall-clock content), so its table is golden-pinned as e13.
    """

    NUM_CHIPS = 2
    SEQ_LEN = 256

    def __init__(self) -> None:
        self.service_model = StarServiceModel(seq_len=self.SEQ_LEN)

    def _requests(self):
        capacity = (
            self.NUM_CHIPS
            * BATCHER.max_batch_size
            / self.service_model.batch_latency_s(BATCHER.max_batch_size, self.SEQ_LEN)
        )
        arrivals = PoissonArrivals(0.5 * capacity, seq_len=self.SEQ_LEN, seed=0)
        return arrivals.generate(2000)

    def row_for(self, sample_fraction: float) -> TieredFidelityRow:
        """Serve the stream with ``sample_fraction`` of dispatches executed."""
        from repro.serving.fleet import TieredServiceModel

        if sample_fraction > 0.0:
            model: ServiceModel = TieredServiceModel(
                self.service_model,
                sample_fraction=sample_fraction,
                jitter_sigma=0.3,
                seed=0,
            )
        else:
            # the analytic-only arm is the *unwrapped* base model — the
            # wrapped fraction-0 form is pinned bit-identical elsewhere
            model = self.service_model
        fleet = ChipFleet(model, num_chips=self.NUM_CHIPS)
        report = ServingSimulator(fleet, BATCHER).run(self._requests())
        return TieredFidelityRow(sample_fraction=sample_fraction, report=report)

    def sweep_rows(self) -> list[TieredFidelityRow]:
        """The fidelity sweep over growing sampled fractions."""
        return [self.row_for(fraction) for fraction in (0.0, 0.05, 0.25, 1.0)]

    def format_table(self) -> str:
        """Printable fidelity sweep: tail metrics per sampled fraction.

        ``x base`` is each run's p99 over the first (analytic-only) row's
        p99 — the tail-propagation headline.  ``exec p99`` is the p99 of
        the executed-tier requests alone (small-sample noisy at low
        fractions; ``-`` when the tier is empty).
        """
        rows = self.sweep_rows()
        baseline_p99 = rows[0].report.p99_latency_s
        lines = [
            f"{'sampled':>8} {'executed':>9} {'p50 (ms)':>9} {'p95 (ms)':>9} "
            f"{'p99 (ms)':>9} {'exec p99':>9} {'x base':>7}"
        ]
        for row in rows:
            report = row.report
            executed_p99 = report.tier_latency_percentile_s(1, 99.0)
            executed_ms = (
                f"{executed_p99 * 1e3:>9.2f}"
                if executed_p99 == executed_p99
                else f"{'-':>9}"
            )
            lines.append(
                f"{row.sample_fraction:>8.2f} {row.executed_fraction:>9.3f} "
                f"{report.p50_latency_s * 1e3:>9.2f} "
                f"{report.p95_latency_s * 1e3:>9.2f} "
                f"{report.p99_latency_s * 1e3:>9.2f} {executed_ms} "
                f"{report.p99_latency_s / baseline_p99:>7.3f}"
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class RoutingPolicyRow:
    """One routing arm on identical arrivals and an identical mixed fleet."""

    label: str
    report: ServingReport

    @property
    def stolen_batches(self) -> int:
        return self.report.routing.stolen_batches if self.report.routing else 0


class RoutingServingAnalyzer:
    """Topology-aware routing on a mixed-tile fleet (E14).

    The fleet is one 96-tile chip plus three 16-tile chips, each serving a
    2-layer BERT.  The trace is 4,000 Poisson requests at 1,000 req/s
    (seed 11), 17 in 20 of them short (L=64, interactive, 20 ms deadline)
    and 3 in 20 long (L=512, batch, 200 ms).  Each arm serves the *same*
    tagged stream behind :data:`BATCHER`:

    * ``global fifo`` — the fleet-wide queue (the pre-routing simulator):
      any idle chip takes the head batch, so long sequences routinely land
      on small-tile chips and mixed batches pad to 512;
    * per-chip queues under ``round_robin`` / ``join_shortest_queue`` /
      ``shortest_expected_delay`` routing, the latter with and without
      work stealing, all behind the same front-end→chip network stage
      (20 µs links, 10 µs steals).

    The offered load is chosen beyond the length-blind policies' capacity
    but within the cost-oracle router's: SED keeps long sequences on the
    big-tile chip (where their amortized batch cost is a fraction of a
    small chip's), so it sustains goodput and tail latency where the
    global FIFO collapses — the headline gap the golden pins.

    Deterministic by construction (seeded arrivals, analytic pricing, no
    wall-clock content), so its table is golden-pinned as e14.
    """

    SHORT_LEN = 64
    SEQ_LENS = (SHORT_LEN,) * 17 + (512,) * 3
    SLO = SLOPolicy((SLOClass("interactive", 20e-3), SLOClass("batch", 200e-3)))
    NETWORK = NetworkModel(link_latency_s=20e-6, steal_latency_s=10e-6)

    def __init__(self) -> None:
        # one cache for every arm: each (tiles, batch, seq_len) shape is
        # priced exactly once across the whole experiment
        self._cache = PricingCache()

    def _star_model(self, num_tiles: int) -> StarServiceModel:
        from repro.core.accelerator import STARAccelerator
        from repro.core.batch_cost import BatchCostModel
        from repro.core.config import MatMulEngineConfig, STARConfig
        from repro.nn.bert import BertConfig

        accelerator = STARAccelerator(
            STARConfig(matmul=MatMulEngineConfig(num_tiles=num_tiles)),
            batch_cost=BatchCostModel.streamed(),
        )
        return StarServiceModel(
            accelerator=accelerator,
            bert_config=BertConfig(num_layers=2),
            cache=self._cache,
        )

    def _fleet(self) -> ChipFleet:
        """A fresh mixed fleet: chip 0 big-tile, the rest small-tile."""
        models = [self._star_model(96)]
        models.extend(self._star_model(16) for _ in range(3))
        return ChipFleet(service_models=models)

    def _requests(self):
        arrivals = PoissonArrivals(1000.0, seq_len=self.SEQ_LENS, seed=11)
        return self.SLO.tag_by_length(
            arrivals.generate(4000), boundaries=(self.SHORT_LEN,)
        )

    def arms(self) -> tuple[tuple[str, Router | None], ...]:
        """The compared (label, router) arms, baseline first."""
        sed = "shortest_expected_delay"
        return (
            ("global fifo", None),
            ("round robin", Router(policy="round_robin", network=self.NETWORK)),
            (
                "join shortest queue",
                Router(policy="join_shortest_queue", network=self.NETWORK),
            ),
            ("sed, no stealing", Router(policy=sed, network=self.NETWORK, stealing=False)),
            ("sed + stealing", Router(policy=sed, network=self.NETWORK)),
        )

    def sweep_rows(self) -> list[RoutingPolicyRow]:
        """All arms over the identical tagged trace, each on a fresh fleet."""
        return [
            RoutingPolicyRow(
                label=label,
                report=ServingSimulator(self._fleet(), BATCHER, router=router).run(
                    self._requests()
                ),
            )
            for label, router in self.arms()
        ]

    def format_table(self) -> str:
        """Printable arm comparison: goodput/tails per routing policy.

        ``x good`` is each arm's goodput over the global-FIFO baseline's —
        the headline multiple; ``p99 (ms)`` falls with it as the router
        stops padding mixed batches and parking long sequences on
        small-tile chips.
        """
        rows = self.sweep_rows()
        baseline = rows[0]
        lines = [
            f"{'policy':<22} {'goodput':>8} {'x good':>7} {'attain':>7} "
            f"{'p50 (ms)':>9} {'p99 (ms)':>9} {'stolen':>7} {'peak q':>7}"
        ]
        for row in rows:
            report = row.report
            multiple = (
                report.goodput_rps / baseline.report.goodput_rps
                if baseline.report.goodput_rps > 0
                else float("inf")
            )
            peak = (
                report.routing.peak_queue_depth
                if report.routing
                else report.queue_peak
            )
            lines.append(
                f"{row.label:<22} {report.goodput_rps:>8.1f} {multiple:>7.2f} "
                f"{report.deadline_attainment():>7.3f} "
                f"{report.p50_latency_s * 1e3:>9.2f} "
                f"{report.p99_latency_s * 1e3:>9.2f} "
                f"{row.stolen_batches:>7} {peak:>7}"
            )
        return "\n".join(lines)
