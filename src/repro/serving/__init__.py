"""Request-level serving simulation of STAR accelerator fleets.

The paper models one attention stage; production serving is requests:
arrival processes, dynamic batching, whole-model chip occupancy and
tail-latency/energy-per-query reporting.  This package assembles those
layers on the shared discrete-event core (:mod:`repro.core.events`):

* :mod:`~repro.serving.arrivals` — open-loop Poisson, Markov-modulated
  (MMPP) and diurnal-curve request streams, trace replay, and closed-loop
  client populations whose arrivals react to completions;
* :mod:`~repro.serving.batcher` — the max-size + timeout dynamic batcher,
  draining FIFO or EDF (earliest absolute deadline first);
* :mod:`~repro.serving.slo` — SLO classes/policies for tagging traffic
  with service classes and deadlines;
* :mod:`~repro.serving.autoscale` — the hysteresis-band autoscaler that
  parks idle chips into non-volatile deep sleep and wakes them against
  utilization/backlog targets;
* :mod:`~repro.serving.fleet` — single- and multi-chip fleets priced by a
  service model (the STAR accelerator's batch-aware whole-model request
  timing, its linearized baseline, a fixed-service stand-in for theory
  checks, or a pre-priced timing table shipped to worker processes), with
  per-chip heterogeneity, shared bounded pricing caches, and tiered
  fidelity (a sampled fraction of dispatches priced off cached
  executed-schedule templates with per-layer jitter);
* :mod:`~repro.serving.simulator` — the event-driven simulation itself:
  one event loop whose queue topology, drain order, arrival source and
  fault/admission/autoscaler hooks all compose;
* :mod:`~repro.serving.routing` — topology-aware multi-queue serving:
  per-chip queues behind a front-end router with a configurable
  front-end→chip network stage, round-robin / join-shortest-queue /
  shortest-expected-delay routing (the latter using batch-aware pricing
  as a cost oracle, so long sequences prefer big-tile chips), and work
  stealing by idle chips;
* :mod:`~repro.serving.sharded` — the multi-process scale-out: partition
  fleet and traffic across worker-process shards and merge the reports;
* :mod:`~repro.serving.faults` — per-chip MTBF/MTTR failure–repair
  processes (repair priced as full-model operand reprogramming), retry
  policies with deadline-aware backoff, and admission control / load
  shedding for graceful degradation;
* :mod:`~repro.serving.report` — throughput / p50-p95-p99 latency / queue
  / utilization / energy-per-query reporting on columnar array-backed
  record tables, mergeable across shards, plus the availability ledger of
  fault-injected runs;
* :mod:`~repro.serving.profiling` — first-party hot-path counters
  (events, dispatch sweeps, wall time) behind the experiments CLI's
  ``--profile`` flag;
* :mod:`~repro.serving.theory` — M/D/1, M/M/1, M/M/c (Erlang C) and
  machine-repair M/M/1//N closed forms the simulator is cross-validated
  against.
"""

from repro.serving.arrivals import (
    ClosedLoopClients,
    DayCurveArrivals,
    MMPPArrivals,
    PoissonArrivals,
    Request,
    TraceArrivals,
)
from repro.serving.autoscale import Autoscaler
from repro.serving.batcher import BATCH_ORDERS, NO_BATCHING, DynamicBatcher
from repro.serving.faults import (
    AdmissionController,
    FaultInjector,
    FaultSession,
    NO_ADMISSION,
    RetryPolicy,
)
from repro.serving.fleet import (
    ChipFleet,
    ExponentialServiceModel,
    FixedServiceModel,
    LinearServiceModel,
    PricingCache,
    ServiceModel,
    StarServiceModel,
    TabulatedServiceModel,
    TieredServiceModel,
    TIER_ANALYTIC,
    TIER_EXECUTED,
)
from repro.serving.profiling import PROFILER, Profiler, RunProfile
from repro.serving.report import (
    BatchRecord,
    BatchTable,
    DropRecord,
    FailureRecord,
    RequestRecord,
    RequestTable,
    RetryRecord,
    RoutingStats,
    ScaleEvent,
    ServingReport,
    StealRecord,
    StealTable,
)
from repro.serving.routing import ROUTING_POLICIES, NetworkModel, Router
from repro.serving.sharded import SPLIT_POLICIES, ShardedServingSimulator
from repro.serving.simulator import ServingSimulator
from repro.serving.slo import SLOClass, SLOPolicy
from repro.serving.theory import MachineRepairQueue, MD1Queue, MM1Queue, MMcQueue

__all__ = [
    "Request",
    "PoissonArrivals",
    "TraceArrivals",
    "MMPPArrivals",
    "DayCurveArrivals",
    "ClosedLoopClients",
    "DynamicBatcher",
    "NO_BATCHING",
    "BATCH_ORDERS",
    "SLOClass",
    "SLOPolicy",
    "Autoscaler",
    "ServiceModel",
    "FixedServiceModel",
    "ExponentialServiceModel",
    "StarServiceModel",
    "LinearServiceModel",
    "TabulatedServiceModel",
    "TieredServiceModel",
    "TIER_ANALYTIC",
    "TIER_EXECUTED",
    "PricingCache",
    "ChipFleet",
    "ServingSimulator",
    "ShardedServingSimulator",
    "SPLIT_POLICIES",
    "Router",
    "NetworkModel",
    "ROUTING_POLICIES",
    "FaultInjector",
    "FaultSession",
    "RetryPolicy",
    "AdmissionController",
    "NO_ADMISSION",
    "RequestRecord",
    "BatchRecord",
    "RequestTable",
    "BatchTable",
    "DropRecord",
    "RetryRecord",
    "FailureRecord",
    "ScaleEvent",
    "StealRecord",
    "StealTable",
    "RoutingStats",
    "ServingReport",
    "Profiler",
    "RunProfile",
    "PROFILER",
    "MD1Queue",
    "MM1Queue",
    "MMcQueue",
    "MachineRepairQueue",
]
