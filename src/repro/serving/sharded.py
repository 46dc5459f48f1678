"""Sharded multi-process serving simulation: millions of requests in minutes.

The single-process simulator funnels every event through one Python
:class:`~repro.core.events.EventLoop`, which caps throughput around a few
hundred thousand events per second.  This module scales *out* instead of
up, exploiting the structure of the serving model: with one fleet-wide
FIFO queue split into ``k`` independent sub-fleets, the sub-systems share
nothing — no queue state, no chip state, no RNG stream — so each can run
in its own worker process and the per-shard
:class:`~repro.serving.report.ServingReport` objects merge exactly
(:meth:`~repro.serving.report.ServingReport.merge` pools the full latency
samples, so merged percentiles are the percentiles of the pooled samples,
not an approximation).

Two ways to feed the shards:

* :meth:`ShardedServingSimulator.run` — split an explicit request list by
  a front-end policy: ``round_robin`` (deterministic interleave),
  ``seq_hash`` (sticky by sequence length, so a shard sees a consistent
  length mix — the routing-study splitter) or ``random`` (seeded Bernoulli
  thinning — the statistically exact split of a Poisson stream, under
  which each shard's arrivals are again Poisson at rate ``lambda / k``).
  Round-robin thins a Poisson stream into Erlang-``k`` shard streams:
  smoother than Poisson, so per-shard waits are *optimistic* relative to
  true thinning — fine for capacity screening, wrong for tail-latency
  claims; use ``random`` or :meth:`~ShardedServingSimulator.run_poisson`
  for those.
* :meth:`ShardedServingSimulator.run_poisson` — hand each worker its own
  rate-``lambda/k`` :class:`~repro.serving.arrivals.PoissonArrivals`
  sub-stream (from :meth:`~repro.serving.arrivals.PoissonArrivals.shards`,
  i.e. one ``SeedSequence.spawn`` tree), so arrival *generation* is
  parallelized too and no request ever crosses a process boundary.

Determinism: every random stream — per-shard arrivals, per-shard fault
processes, retry jitter, and the draws of every service model that draws
random numbers, wrapped or not (:meth:`~repro.serving.fleet.ServiceModel.shards`)
— derives from one ``SeedSequence.spawn`` tree rooted at the user's seed,
so the same seed and shard count reproduce the same merged report whether
shards run serially in-process (``parallel=False``) or across worker
processes, on any worker count.

What crosses the process boundary stays small: shard tasks carry the
sub-fleet's service models (pre-warm with
:meth:`ShardedServingSimulator.prewarm` /
:meth:`~repro.serving.fleet.ChipFleet.tabulated` to ship plain timing
tables instead of accelerator objects, so no shard re-prices the
workload) and either an arrival-process spec or compact numpy arrays;
results return as columnar array-backed reports.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from repro.serving.arrivals import PoissonArrivals, Request, requests_from_arrays
from repro.serving.autoscale import Autoscaler
from repro.serving.batcher import NO_BATCHING, DynamicBatcher
from repro.serving.faults import AdmissionController, FaultInjector, RetryPolicy
from repro.serving.fleet import ChipFleet, ServiceModel
from repro.serving.profiling import PROFILER, RunProfile
from repro.serving.report import ServingReport
from repro.serving.routing import Router
from repro.serving.simulator import ServingSimulator
from repro.utils.stats import spawn_seeds
from repro.utils.validation import require_positive_int

__all__ = ["SPLIT_POLICIES", "ShardedServingSimulator"]

#: Front-end request-to-shard assignment policies for :meth:`run`.
SPLIT_POLICIES = ("round_robin", "seq_hash", "random")

#: Knuth's multiplicative hash constant — spreads consecutive sequence
#: lengths across shards instead of striding them (seq_len % k would send
#: every length of one residue class to one shard).
_HASH_MULTIPLIER = 2654435761


@dataclass
class _ShardTask:
    """Everything one worker needs to simulate its shard, kept picklable."""

    shard: int
    num_shards: int
    models: tuple[ServiceModel, ...]
    speedups: tuple[float, ...]
    batcher: DynamicBatcher
    faults: FaultInjector | None
    retry: RetryPolicy | None
    admission: AdmissionController | None
    autoscaler: Autoscaler | None = None
    router: Router | None = None
    # explicit split: compact arrays (rebuilt into requests in the worker)
    times: np.ndarray | None = None
    lens: np.ndarray | None = None
    indices: np.ndarray | None = None
    slo_classes: np.ndarray | None = None
    deadlines: np.ndarray | None = None
    # generated split: an arrival process the worker runs itself
    arrivals: PoissonArrivals | None = None
    num_requests: int = 0
    index_offset: int = 0


def _simulate_shard(task: _ShardTask) -> tuple[ServingReport, RunProfile | None]:
    """Run one shard to completion (module-level so worker pools can pickle it)."""
    fleet = ChipFleet(service_models=task.models, speedups=task.speedups)
    simulator = ServingSimulator(
        fleet,
        task.batcher,
        faults=task.faults,
        retry=task.retry,
        admission=task.admission,
        autoscaler=task.autoscaler,
        router=task.router,
    )
    if task.arrivals is not None:
        requests = task.arrivals.generate(task.num_requests, task.index_offset)
    else:
        requests = requests_from_arrays(
            task.times,
            task.lens,
            task.indices.tolist(),
            slo_classes=task.slo_classes,
            deadlines=task.deadlines,
        )
    if not requests:
        # an empty shard still counts its chips (and queues) in the merge
        return simulator._simulate([])[0], None
    report = simulator.run(requests, label=f"shard {task.shard}/{task.num_shards}")
    return report, simulator.last_profile


class ShardedServingSimulator:
    """Partition a fleet and arrival stream across worker processes.

    The fleet's chips are split contiguously into ``num_shards`` sub-fleets
    (as even as the division allows; ``num_chips >= num_shards`` required)
    and each shard runs a full :class:`~repro.serving.simulator.ServingSimulator`
    — healthy or fault-aware — on its slice of the traffic.  Per-shard
    fault processes derive from one ``SeedSequence.spawn`` tree over the
    injector's seed, so no two shards share draws and results reproduce
    for any worker count.

    ``parallel=False`` runs the shards serially in the calling process —
    bit-identical results (useful for tests and coverage), no speedup.
    ``max_workers`` caps the process pool (default: one worker per shard,
    bounded by the machine's CPU count).
    """

    def __init__(
        self,
        fleet: ChipFleet,
        batcher: DynamicBatcher = NO_BATCHING,
        num_shards: int = 2,
        faults: FaultInjector | None = None,
        retry: RetryPolicy | None = None,
        admission: AdmissionController | None = None,
        autoscaler: Autoscaler | None = None,
        router: Router | None = None,
        parallel: bool = True,
        max_workers: int | None = None,
    ) -> None:
        require_positive_int(num_shards, "num_shards")
        if fleet.num_chips < num_shards:
            raise ValueError(
                f"cannot shard {fleet.num_chips} chip(s) across {num_shards} "
                f"shards; need at least one chip per shard"
            )
        if max_workers is not None:
            require_positive_int(max_workers, "max_workers")
        self.fleet = fleet
        self.batcher = batcher
        self.num_shards = num_shards
        self.faults = faults
        self.retry = retry
        self.admission = admission
        self.autoscaler = autoscaler
        self.router = router
        self.parallel = parallel
        self.max_workers = max_workers
        #: Per-shard reports and hot-path profiles of the latest run.
        self.last_reports: list[ServingReport] = []
        self.last_profiles: list[RunProfile] = []

    # ------------------------------------------------------------------ #
    # partitioning
    # ------------------------------------------------------------------ #
    def prewarm(
        self, batch_sizes: Sequence[int], seq_lens: Sequence[int]
    ) -> "ShardedServingSimulator":
        """Freeze the fleet's pricing into tables before sharding.

        Prices the whole ``batch x seq_len`` grid once in the calling
        process (:meth:`~repro.serving.fleet.ChipFleet.tabulated`), so
        workers receive plain timing tables and never touch an accelerator
        model.  Tiered models additionally get their executed-schedule
        templates cold-built here over the same grid, so workers only ever
        resample prebuilt templates.  Returns ``self`` for chaining.
        """
        self.fleet = self.fleet.tabulated(batch_sizes, seq_lens)
        return self

    def _chip_slices(self) -> list[slice]:
        base, extra = divmod(self.fleet.num_chips, self.num_shards)
        slices = []
        start = 0
        for shard in range(self.num_shards):
            count = base + (1 if shard < extra else 0)
            slices.append(slice(start, start + count))
            start += count
        return slices

    def _shard_faults(self) -> list[FaultInjector | None]:
        if self.faults is None:
            return [None] * self.num_shards
        return [
            replace(self.faults, seed=child)
            for child in spawn_seeds(self.faults.seed, self.num_shards)
        ]

    def _shard_models(self) -> list[tuple[ServiceModel, ...]]:
        """Per-shard model tuples, one ``shards`` call per distinct model.

        The copies are built here — before execution forks — so serial
        (``parallel=False``) and worker-pool runs consume identical
        generator states and stay bit-identical.
        """
        copies: dict[int, list[ServiceModel]] = {}
        for model in self.fleet.models:
            if id(model) not in copies:
                copies[id(model)] = model.shards(self.num_shards)
        return [
            tuple(copies[id(model)][shard] for model in self.fleet.models[chips])
            for shard, chips in enumerate(self._chip_slices())
        ]

    def _tasks(self) -> list[_ShardTask]:
        faults = self._shard_faults()
        models = self._shard_models()
        # per-queue topology partitions with the chips: each shard's
        # router keeps its own slice of the per-link latencies
        return [
            _ShardTask(
                shard=shard,
                num_shards=self.num_shards,
                models=models[shard],
                speedups=self.fleet.speedups[chips],
                batcher=self.batcher,
                faults=faults[shard],
                retry=self.retry,
                admission=self.admission,
                autoscaler=self.autoscaler,
                router=self.router.for_chips(chips)
                if self.router is not None
                else None,
            )
            for shard, chips in enumerate(self._chip_slices())
        ]

    def _assign(
        self, requests: Sequence[Request], policy: str, seed: int
    ) -> np.ndarray:
        """Shard id per request under the front-end splitter policy."""
        if policy == "round_robin":
            return np.arange(len(requests), dtype=np.int64) % self.num_shards
        if policy == "seq_hash":
            lens = np.fromiter(
                (r.seq_len for r in requests), dtype=np.int64, count=len(requests)
            )
            return (lens * _HASH_MULTIPLIER % (1 << 32)) % self.num_shards
        if policy == "random":
            rng = np.random.default_rng(seed)
            return rng.integers(0, self.num_shards, size=len(requests))
        raise ValueError(f"policy must be one of {SPLIT_POLICIES}, got {policy!r}")

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def _execute(self, tasks: list[_ShardTask]) -> ServingReport:
        if self.parallel and len(tasks) > 1:
            methods = multiprocessing.get_all_start_methods()
            # fork shares the parent's warmed state (pricing tables, code)
            # for free; fall back to the platform default elsewhere
            context = multiprocessing.get_context(
                "fork" if "fork" in methods else None
            )
            workers = min(
                len(tasks), self.max_workers or os.cpu_count() or 1
            )
            with context.Pool(processes=workers) as pool:
                results = pool.map(_simulate_shard, tasks, chunksize=1)
        else:
            results = [_simulate_shard(task) for task in tasks]
        reports = [report for report, _ in results]
        profiles = [profile for _, profile in results if profile is not None]
        self.last_reports = reports
        self.last_profiles = profiles
        for profile in profiles:  # subprocess profilers die with the worker
            PROFILER.record(profile)
        merged = ServingReport.merge(reports)
        return merged

    def run(
        self,
        requests: Sequence[Request],
        policy: str = "round_robin",
        seed: int = 0,
    ) -> ServingReport:
        """Split an explicit request list across the shards and serve it.

        ``policy`` picks the front-end splitter (:data:`SPLIT_POLICIES`);
        ``seed`` only matters for ``"random"``.  Requests keep their
        original indices, so the merged report's request identities match
        the input stream.
        """
        if not requests:
            raise ValueError("cannot simulate an empty request stream")
        assignment = self._assign(requests, policy, seed)
        times = np.fromiter(
            (r.arrival_s for r in requests), dtype=np.float64, count=len(requests)
        )
        lens = np.fromiter(
            (r.seq_len for r in requests), dtype=np.int64, count=len(requests)
        )
        indices = np.fromiter(
            (r.index for r in requests), dtype=np.int64, count=len(requests)
        )
        slo_classes = np.fromiter(
            (r.slo_class for r in requests), dtype=np.int64, count=len(requests)
        )
        deadlines = np.fromiter(
            (r.deadline_s for r in requests), dtype=np.float64, count=len(requests)
        )
        # ship the SLO columns only when some request is actually tagged,
        # keeping untagged shard tasks byte-identical to the pre-SLO format
        tagged = bool(slo_classes.any() or np.isfinite(deadlines).any())
        tasks = self._tasks()
        for shard, task in enumerate(tasks):
            mine = assignment == shard
            task.times = times[mine]
            task.lens = lens[mine]
            task.indices = indices[mine]
            if tagged:
                task.slo_classes = slo_classes[mine]
                task.deadlines = deadlines[mine]
        return self._execute(tasks)

    def run_poisson(
        self, arrivals: PoissonArrivals, num_requests: int
    ) -> ServingReport:
        """Serve ``num_requests`` of a Poisson stream, split exactly.

        The stream is split by :meth:`~repro.serving.arrivals.PoissonArrivals.shards`
        — ``k`` independent rate-``lambda/k`` processes from one
        ``SeedSequence.spawn`` tree, the statistically exact decomposition
        of a Poisson process — and each worker *generates its own
        arrivals*, so for large runs neither the request list nor its
        arrays ever cross a process boundary.  Each shard serves
        ``num_requests / num_shards`` requests (the first shards take the
        remainder), with globally unique request indices.
        """
        require_positive_int(num_requests, "num_requests")
        if num_requests < self.num_shards:
            raise ValueError(
                f"cannot split {num_requests} request(s) across "
                f"{self.num_shards} shards"
            )
        streams = arrivals.shards(self.num_shards)
        base, extra = divmod(num_requests, self.num_shards)
        tasks = self._tasks()
        offset = 0
        for shard, task in enumerate(tasks):
            count = base + (1 if shard < extra else 0)
            task.arrivals = streams[shard]
            task.num_requests = count
            task.index_offset = offset
            offset += count
        return self._execute(tasks)
