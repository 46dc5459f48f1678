"""The two fleet-serving workloads: ``serve_tiered`` and ``serve_routed``.

Each workload serves seeded, SLO-tagged request traces through two arms.
A workload's traffic is one or more segments: independent traces, each
served by every arm on fleets of its own.  The headline arm (listed
first) supplies the ``sim_*`` metrics, pooled over the segments; both arms
count toward ``requests_per_s``.  Every repetition builds its own fleets
with private :class:`~repro.serving.fleet.PricingCache` and
:class:`~repro.core.schedule_cache.ScheduleTemplateCache` instances, so
each one pays the cold pricing and cold executed-schedule builds instead
of hitting the process-wide shared caches filled by an earlier repetition.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.accelerator import ChipResources, PowerState, STARAccelerator
from repro.core.batch_cost import BatchCostModel
from repro.core.config import MatMulEngineConfig, STARConfig
from repro.core.schedule_cache import ScheduleTemplateCache
from repro.nn.bert import BertConfig
from repro.serving import (
    AdmissionController,
    Autoscaler,
    ChipFleet,
    DayCurveArrivals,
    DynamicBatcher,
    FaultInjector,
    NetworkModel,
    PoissonArrivals,
    PricingCache,
    RetryPolicy,
    Router,
    ServingSimulator,
    SLOClass,
    SLOPolicy,
    StarServiceModel,
    TieredServiceModel,
)
from repro.serving.report import ServingReport

from spans import SIM_TAIL_CAP, tail_percentile

__all__ = ["ServeTiered", "ServeRouted"]

MAX_BATCH = 8
MAX_WAIT_S = 2e-3


@dataclass
class Arm:
    """One simulator configuration of a workload, serving one segment."""

    label: str
    simulator: ServingSimulator
    tiered: TieredServiceModel | None = None
    #: Cold-built through ``tiered`` before serving: one phase per batch size.
    template_seq_len: int = 0
    template_cache: ScheduleTemplateCache | None = None


@dataclass
class Segment:
    """One request trace and the arms that serve it."""

    requests: list
    arms: list[Arm]


@dataclass
class ServingState:
    segments: list[Segment]


@dataclass
class ServingOutcome:
    reports: dict = field(default_factory=dict)  # arm label -> one report per segment
    profiles: dict = field(default_factory=dict)  # arm label -> one profile per segment
    sim: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)


def _batcher(edf: bool = False) -> DynamicBatcher:
    if edf:
        return DynamicBatcher.edf(max_batch_size=MAX_BATCH, max_wait_s=MAX_WAIT_S)
    return DynamicBatcher(max_batch_size=MAX_BATCH, max_wait_s=MAX_WAIT_S)


def headline_metrics(reports: list, num_offered: int) -> tuple[dict, dict]:
    """The ``sim_*`` end-to-end metrics of one arm over its segments, plus
    tail bookkeeping.

    Latency percentiles pool the requests of every segment.  Goodput counts
    completions that met their own SLO deadline per second of makespan,
    both summed over segments; shed and abandoned requests count as
    missing it.
    """
    pooled = ServingReport.merge(reports)
    latency = pooled.requests.latency_s
    tail_pct, tail_s = tail_percentile(latency, cap=SIM_TAIL_CAP)
    good = sum(r.num_requests - r.num_deadline_misses() for r in reports)
    energy_j = sum(r.total_energy_j for r in reports)
    sim = {
        "sim_p50_ms": pooled.p50_latency_s * 1e3,
        "sim_tail_ms": tail_s * 1e3,
        "sim_goodput_rps": good / sum(r.makespan_s for r in reports),
        "sim_completed_frac": pooled.num_requests / num_offered,
        "sim_energy_per_query_mj": energy_j / pooled.num_requests * 1e3,
    }
    details = {"sim_tail_pct": tail_pct, "sim_tail_samples": int(latency.size)}
    return sim, details


class _ServingWorkload:
    """Shared run/check logic of the serving workloads."""

    def setup(self, seed: int, phase) -> ServingState:
        raise NotImplementedError

    def run(self, state: ServingState, phase) -> ServingOutcome:
        outcome = ServingOutcome()
        for segment in state.segments:
            for arm in segment.arms:
                if arm.tiered is not None:
                    for batch in range(1, MAX_BATCH + 1):
                        with phase(f"{arm.label}.template.b{batch}"):
                            arm.tiered.build_templates([batch], [arm.template_seq_len])
                with phase(f"{arm.label}.serve"):
                    report = arm.simulator.run(segment.requests, label=arm.label)
                    report.summary()  # reading the report belongs to the timed phase
                outcome.reports.setdefault(arm.label, []).append(report)
                outcome.profiles.setdefault(arm.label, []).append(arm.simulator.last_profile)
        with phase("headline_metrics"):
            headline = state.segments[0].arms[0].label
            offered = sum(len(segment.requests) for segment in state.segments)
            outcome.sim, outcome.details = headline_metrics(outcome.reports[headline], offered)
        return outcome

    @staticmethod
    def offered(state: ServingState) -> int:
        """Requests offered across all arms (the ``requests_per_s`` numerator)."""
        return sum(len(segment.requests) * len(segment.arms) for segment in state.segments)

    def check(self, state: ServingState, outcome: ServingOutcome) -> list[tuple[str, bool]]:
        """Invariants of every arm's report on every segment (no golden values)."""
        checks = []
        for index, segment in enumerate(state.segments):
            for arm in segment.arms:
                report = outcome.reports[arm.label][index]
                checks.extend(self._report_checks(f"{arm.label}[{index}]", arm, segment, report))
        return checks

    @staticmethod
    def _report_checks(name: str, arm: Arm, segment: Segment, report) -> list[tuple[str, bool]]:
        req, batches = report.requests, report.batches
        order = np.lexsort((batches.dispatch_s, batches.chip))
        chip = batches.chip[order]
        same_chip = chip[1:] == chip[:-1]
        checks = [
            (f"{name}: completed + shed + abandoned == offered",
             report.num_offered == len(segment.requests)),
            (f"{name}: arrival <= dispatch <= completion",
             bool(np.all(req.arrival_s <= req.dispatch_s)
                  and np.all(req.dispatch_s <= req.completion_s))),
            (f"{name}: no batch exceeds the cap",
             bool(batches.size.max() <= arm.simulator.batcher.max_batch_size)),
            (f"{name}: no chip holds two batches at once",
             bool(np.all(batches.dispatch_s[order][1:][same_chip]
                         >= batches.completion_s[order][:-1][same_chip]))),
        ]
        if arm.tiered is not None:
            checks.extend(_ServingWorkload._tier_checks(name, arm, report))
        return checks

    @staticmethod
    def _tier_checks(name: str, arm: Arm, report) -> list[tuple[str, bool]]:
        """Executed-tier latencies never beat their template's critical path."""
        batches = report.batches
        executed = batches.tier == 1
        floor = np.array(
            [
                arm.tiered.templates[(int(size), int(seq))].base_latency_s
                for size, seq in zip(batches.size[executed], batches.seq_len[executed])
            ]
        )
        service = batches.completion_s[executed] - batches.dispatch_s[executed]
        # completion = dispatch + service is rounded once; allow that rounding
        slack = 2.0 * np.spacing(batches.completion_s[executed])
        return [
            (f"{name}: executed-tier latency >= jitter-free critical path",
             bool(executed.any() and np.all(service + slack >= floor))),
            (f"{name}: repetition cold-built a template for every batch size",
             arm.template_cache.misses == MAX_BATCH),
        ]

    def layer_metrics(self, state: ServingState, outcome: ServingOutcome) -> dict[str, float]:
        """Per-layer counters read from the reports and ``last_profile``."""
        profiles = [p for per_arm in outcome.profiles.values() for p in per_arm]
        offered = self.offered(state)
        events = sum(p.events_popped for p in profiles)
        dispatches = sum(p.dispatch_calls for p in profiles)
        batches = sum(p.num_batches for p in profiles)
        metrics = {
            "core.events.events_per_request": events / offered,
            "serving.simulator.dispatch_calls_per_request": dispatches / offered,
            "serving.batcher.batch_yield": batches / dispatches,
            "serving.fleet.pricing_cache.hits": float(sum(p.pricing_hits for p in profiles)),
            "serving.fleet.pricing_cache.misses": float(sum(p.pricing_misses for p in profiles)),
        }
        # counters of every segment, pooled as the sharded simulator pools shards
        pooled = {label: ServingReport.merge(reports) for label, reports in outcome.reports.items()}
        headline = pooled[state.segments[0].arms[0].label]
        metrics["serving.batcher.mean_batch_size"] = headline.mean_batch_size
        metrics["serving.batcher.sim_queue_wait_ms"] = headline.mean_wait_s * 1e3
        for arm in state.segments[0].arms:
            report = pooled[arm.label]
            if arm.tiered is not None:
                arm_profiles = outcome.profiles[arm.label]
                executed = sum(p.executed_batches for p in arm_profiles)
                priced = sum(p.analytic_batches + p.executed_batches for p in arm_profiles)
                metrics["serving.fleet.tiered.executed_share"] = executed / priced
            if report.autoscale_enabled:
                metrics["serving.autoscale.scale_events"] = float(report.num_scale_events)
                metrics["serving.autoscale.mean_awake_chips"] = report.mean_awake_chips
        if headline.routing_enabled:
            routing = headline.routing
            network_s = routing.route_network_s + routing.steal_network_s
            metrics.update(
                {
                    "serving.routing.routed": float(routing.num_routed),
                    "serving.routing.stolen_batches": float(routing.stolen_batches),
                    "serving.routing.peak_queue_depth": float(routing.peak_queue_depth),
                    "serving.routing.sim_network_ms": network_s / headline.num_requests * 1e3,
                }
            )
        if headline.faults_enabled:
            lost = headline.num_lost_batches
            metrics.update(
                {
                    "serving.faults.failures": float(headline.num_failures),
                    "serving.faults.retries": float(headline.num_retries),
                    "serving.faults.shed": float(headline.num_shed),
                    "serving.faults.abandoned": float(headline.num_abandoned),
                    "serving.faults.lost_batch_share": lost / (headline.num_batches + lost),
                }
            )
        return metrics


class ServeTiered(_ServingWorkload):
    """e13 x e12: a sleep-capable 4-chip BERT-base fleet on a diurnal trace.

    * ``tiered`` (headline) — 25 % of dispatches priced off executed-schedule
      templates (jitter sigma 0.3) on the healthy global FIFO.  Every
      repetition cold-builds the templates of batch sizes 1..8 into a fresh
      template cache before serving (``build_templates``, as the sharded
      simulator's prewarm does), one timed phase per build;
    * ``edf_autoscale`` — analytic pricing, EDF drain and a hysteresis
      autoscaler through the SLO control plane.

    One segment of 50,000 requests.
    """

    num_requests = 50_000
    num_chips = 4
    seq_len = 128

    @staticmethod
    def _star(cache: PricingCache) -> StarServiceModel:
        accelerator = STARAccelerator(
            resources=ChipResources(power_state=PowerState()),
            batch_cost=BatchCostModel.streamed(),
        )
        return StarServiceModel(accelerator=accelerator, seq_len=ServeTiered.seq_len, cache=cache)

    def setup(self, seed: int, phase) -> ServingState:
        with phase("trace"):
            policy = SLOPolicy((SLOClass("interactive", 0.06), SLOClass("batch", 1.0)))
            arrivals = DayCurveArrivals(
                mean_rate_rps=600.0, period_s=12.0, seq_len=self.seq_len, seed=seed
            )
            requests = policy.tag_random(
                arrivals.generate(self.num_requests), weights=(0.5, 0.5), seed=seed + 1
            )
        with phase("fleets"):
            template_cache = ScheduleTemplateCache()
            tiered = TieredServiceModel(
                self._star(PricingCache()),
                sample_fraction=0.25,
                jitter_sigma=0.3,
                seed=seed,
                template_cache=template_cache,
            )
            tiered_arm = Arm(
                "tiered",
                ServingSimulator(ChipFleet(tiered, num_chips=self.num_chips), _batcher()),
                tiered=tiered,
                template_seq_len=self.seq_len,
                template_cache=template_cache,
            )
            autoscaler = Autoscaler(
                interval_s=0.05,
                scale_up_above=0.85,
                scale_down_below=0.55,
                scale_up_queue_depth=64,
                min_chips=1,
            )
            autoscale_arm = Arm(
                "edf_autoscale",
                ServingSimulator(
                    ChipFleet(self._star(PricingCache()), num_chips=self.num_chips),
                    _batcher(edf=True),
                    autoscaler=autoscaler,
                ),
            )
        return ServingState([Segment(requests, [tiered_arm, autoscale_arm])])


class ServeRouted(_ServingWorkload):
    """e11 x e14: a skewed L=64/512 trace on a 96+16x3-tile fleet with faults.

    * ``sed_steal`` (headline) — shortest-expected-delay routing with work
      stealing behind a 20 us link / 10 us steal network;
    * ``global_faults`` — the same faults on the global fault-aware FIFO.

    Four segments of 25,000 requests, each with trace and fault seeds of
    its own, so that no timed phase lasts much over a second.
    """

    num_segments = 4
    segment_requests = 25_000
    short_len = 64
    long_len = 512

    @staticmethod
    def _fleet() -> ChipFleet:
        cache = PricingCache()

        def chip(num_tiles: int) -> StarServiceModel:
            accelerator = STARAccelerator(
                STARConfig(matmul=MatMulEngineConfig(num_tiles=num_tiles)),
                batch_cost=BatchCostModel.streamed(),
            )
            return StarServiceModel(
                accelerator=accelerator, bert_config=BertConfig(num_layers=2), cache=cache
            )

        return ChipFleet(service_models=[chip(96)] + [chip(16) for _ in range(3)])

    def setup(self, seed: int, phase) -> ServingState:
        policy = SLOPolicy((SLOClass("interactive", 20e-3), SLOClass("batch", 200e-3)))
        router = Router(
            policy="shortest_expected_delay",
            network=NetworkModel(link_latency_s=20e-6, steal_latency_s=10e-6),
        )
        segments = []
        for index in range(self.num_segments):
            segment_seed = seed * self.num_segments + index
            with phase("trace"):
                arrivals = PoissonArrivals(
                    700.0,
                    seq_len=(self.short_len,) * 17 + (self.long_len,) * 3,
                    seed=segment_seed,
                )
                requests = policy.tag_by_length(
                    arrivals.generate(self.segment_requests), boundaries=(self.short_len,)
                )
            with phase("fleets"):
                arms = []
                for label, arm_router in (("sed_steal", router), ("global_faults", None)):
                    fleet = self._fleet()
                    faults = FaultInjector.for_capacity_loss(
                        0.05,
                        repair_s=fleet.reprogram_latency_s(0),
                        detection_s=0.05,
                        seed=1_000_000 + segment_seed,
                    )
                    simulator = ServingSimulator(
                        fleet,
                        _batcher(),
                        faults=faults,
                        retry=RetryPolicy(deadline_s=0.2),
                        admission=AdmissionController(max_queue_depth=256, degraded_max_batch=4),
                        router=arm_router,
                    )
                    arms.append(Arm(label, simulator))
            segments.append(Segment(requests, arms))
        return ServingState(segments)
