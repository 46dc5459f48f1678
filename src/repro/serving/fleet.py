"""Chip fleets: the serving simulator's server pool and its service model.

A fleet is ``num_chips`` accelerator chips sharing one dispatch queue.
What a batch costs is delegated to a *service model*, a subclass of
:class:`ServiceModel`: the one declaration of everything the fleet, router,
simulator and sharder ask of a model, with defaults for a plain chip.

* :class:`StarServiceModel` — the real thing: a
  :class:`~repro.core.accelerator.STARAccelerator` (one
  :class:`~repro.core.accelerator.ChipResources` worth of tile banks,
  softmax engines and overheads) prices a batch by its closed-form
  whole-model BERT timing at the batch's padded sequence length, with
  energy charged at the chip's active power.  Pricing is **batch-aware**:
  it defaults to :meth:`~repro.core.batch_cost.BatchCostModel.streamed`,
  under which a batch programs each stationary operand once and streams
  every request's rows through it (double-buffered beyond the first
  request), so batch service time is genuinely sublinear in batch size.
  Timings are cached per ``(batch, seq_len)`` shape in a bounded cache
  shared across all models of one
  :func:`~repro.core.schedule_cache.chip_config_fingerprint` — the chips
  of a fleet (and every fleet of a sweep) price each shape exactly once.
* :class:`LinearServiceModel` — wraps any service model and prices a batch
  as ``batch_size x single_request``: the pre-batching behaviour, kept as
  the explicit baseline the amortisation sweeps compare against.
* :class:`FixedServiceModel` — a synthetic deterministic service used by
  the queueing-theory cross-validation (M/D/1 needs a known constant
  service time, not a full accelerator model).
* :class:`TieredServiceModel` — fidelity as a dial: a seeded Bernoulli
  fraction of dispatches is priced off cached executed-schedule templates
  (:mod:`repro.core.schedule_cache`) with per-layer lognormal jitter
  resampled per dispatch, the rest through the wrapped analytic model —
  so pipeline-level tail variation reaches request-level p99 at ~zero
  hot-path cost.

Fleets can be heterogeneous two ways: per-chip ``speedups`` (scalar speed
factors, as before), or a per-chip ``service_models`` sequence — chips
with genuinely different :class:`~repro.core.accelerator.ChipResources`
(tile counts, engine pools) price the same batch differently, which is
what length-aware routing studies need.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.utils.stats import spawn_seeds
from repro.utils.validation import (
    require_finite,
    require_non_negative,
    require_positive,
    require_positive_int,
)

__all__ = [
    "ServiceModel",
    "WrappedCapabilities",
    "FixedServiceModel",
    "ExponentialServiceModel",
    "StarServiceModel",
    "LinearServiceModel",
    "TabulatedServiceModel",
    "TieredServiceModel",
    "PricingCache",
    "ChipFleet",
    "TIER_ANALYTIC",
    "TIER_EXECUTED",
]

#: Fidelity tier of a dispatched batch: analytic cache pricing.
TIER_ANALYTIC = 0
#: Fidelity tier of a dispatched batch: executed-schedule template resample.
TIER_EXECUTED = 1


class ServiceModel:
    """Prices one dispatched batch on one (speed-1.0) chip.

    Subclasses implement the two pricing methods and override the
    capability attributes their chip has; the defaults are a chip that
    idles at 0 W, never needs repair, cannot sleep deeper than idle
    (``sleep_power_w = None``) and wakes for free.  A model that draws random numbers also
    overrides :meth:`expected_latency_s` and :meth:`shards`.
    """

    idle_power_w: float = 0.0
    reprogram_latency_s: float = 0.0
    sleep_power_w: float | None = None
    sleep_entry_latency_s: float = 0.0
    wake_latency_s: float = 0.0
    wake_energy_j: float = 0.0
    #: Fidelity tier of the most recent :meth:`batch_latency_s` call.
    last_tier: int = TIER_ANALYTIC
    #: The model a wrapper re-prices, and the pricing cache a model reads.
    base: "ServiceModel | None" = None
    cache: "PricingCache | None" = None

    def batch_latency_s(self, batch_size: int, seq_len: int) -> float:
        """Service time of a ``batch_size`` batch padded to ``seq_len``."""
        raise NotImplementedError

    def batch_energy_j(self, batch_size: int, seq_len: int) -> float:
        """Active energy of serving that batch."""
        raise NotImplementedError

    def expected_latency_s(self, batch_size: int, seq_len: int) -> float:
        """The batch's service time without advancing any random stream."""
        return self.batch_latency_s(batch_size, seq_len)

    def tabulated(
        self, batch_sizes: Sequence[int], seq_lens: Sequence[int]
    ) -> "ServiceModel":
        """This model with its pricing frozen over the shape grid (picklable)."""
        return TabulatedServiceModel.tabulate(self, batch_sizes, seq_lens)

    def shards(self, count: int) -> list["ServiceModel"]:
        """One model per shard; a random model returns copies seeded by its seed's children."""
        return [self] * count


class WrappedCapabilities(ServiceModel):
    """Capability pass-throughs of a service model wrapping ``self.base``.

    A wrapper re-prices batches but runs on the *same hardware* as the
    model it wraps, so its standby power, repair cost and power-state
    capabilities are the base model's — these six properties forward them.
    Shared by :class:`LinearServiceModel` and :class:`TieredServiceModel`
    so the forwarding exists exactly once.
    """

    base: ServiceModel

    @property
    def idle_power_w(self) -> float:
        """Standby power of the wrapped chip model."""
        return self.base.idle_power_w

    @property
    def reprogram_latency_s(self) -> float:
        """Repair cost of the wrapped chip model (same hardware, same rewrite)."""
        return self.base.reprogram_latency_s

    @property
    def sleep_power_w(self) -> float | None:
        """Deep-sleep power of the wrapped chip."""
        return self.base.sleep_power_w

    @property
    def sleep_entry_latency_s(self) -> float:
        """Sleep-entry latency of the wrapped chip."""
        return self.base.sleep_entry_latency_s

    @property
    def wake_latency_s(self) -> float:
        """Wake latency of the wrapped chip (same hardware, same re-bias)."""
        return self.base.wake_latency_s

    @property
    def wake_energy_j(self) -> float:
        """Wake energy of the wrapped chip."""
        return self.base.wake_energy_j


@dataclass(frozen=True)
class FixedServiceModel(ServiceModel):
    """Deterministic per-request service, serialized within a batch.

    A batch of ``b`` requests costs ``b * request_latency_s`` — no batching
    benefit, which keeps the no-batching single-chip limit an exact M/D/1
    queue with service time ``request_latency_s``.  ``idle_power_w`` is the
    chip's standby draw, charged by the report over un-occupied time.

    The ``sleep_*`` / ``wake_*`` fields are the synthetic power-state knobs
    the autoscaler tests use: residual power while parked, the drain into
    deep sleep, and the latency/energy of waking back up.  They default to
    a chip that cannot sleep deeper than idle and wakes for free.
    """

    request_latency_s: float
    request_energy_j: float = 0.0
    idle_power_w: float = 0.0
    reprogram_latency_s: float = 0.0
    sleep_power_w: float = 0.0
    sleep_entry_latency_s: float = 0.0
    wake_latency_s: float = 0.0
    wake_energy_j: float = 0.0

    def __post_init__(self) -> None:
        require_finite(require_positive(self.request_latency_s, "request_latency_s"),
                       "request_latency_s")
        for name in (
            "request_energy_j",
            "idle_power_w",
            "reprogram_latency_s",
            "sleep_power_w",
            "sleep_entry_latency_s",
            "wake_latency_s",
            "wake_energy_j",
        ):
            value = getattr(self, name)
            require_finite(require_non_negative(value, name), name)
        if self.sleep_power_w > self.idle_power_w:
            raise ValueError(
                f"deep sleep must not draw more than idle: "
                f"{self.sleep_power_w} W > {self.idle_power_w} W"
            )

    def batch_latency_s(self, batch_size: int, seq_len: int) -> float:
        return batch_size * self.request_latency_s

    def batch_energy_j(self, batch_size: int, seq_len: int) -> float:
        return batch_size * self.request_energy_j


class ExponentialServiceModel(ServiceModel):
    """Exponential per-request service — the Markovian theory stand-in.

    Each :meth:`batch_latency_s` call draws the batch's service time as a
    sum of ``batch_size`` exponentials with mean ``mean_s`` from one seeded
    generator, so runs are exactly reproducible in the seed and the
    call-order of the simulator (which prices each dispatched batch
    exactly once).  The generator is seeded with the first child of
    ``seed``, not ``seed`` itself: arrival processes draw their gaps from
    ``seed`` directly, and equal seeds would otherwise make service ``n``
    a fixed multiple of arrival gap ``n``.  The single-chip, no-batching
    closed loop over this model is precisely the machine-repair M/M/1//N
    system of :class:`~repro.serving.theory.MachineRepairQueue`; the
    open-loop variant is M/M/1.  Energy stays deterministic (``batch_size *
    request_energy_j``): it is queried separately from the latency draw
    and plays no role in the Markovian dynamics.
    """

    def __init__(
        self,
        mean_s: float,
        request_energy_j: float = 0.0,
        idle_power_w: float = 0.0,
        seed: int | np.random.SeedSequence | None = 0,
    ) -> None:
        require_finite(require_positive(mean_s, "mean_s"), "mean_s")
        require_finite(require_non_negative(request_energy_j, "request_energy_j"),
                       "request_energy_j")
        require_finite(require_non_negative(idle_power_w, "idle_power_w"), "idle_power_w")
        self.mean_s = float(mean_s)
        self.request_energy_j = float(request_energy_j)
        self.idle_power_w = float(idle_power_w)
        self.seed = seed
        root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
        # built, not spawned: ``spawn()`` would advance a caller's SeedSequence
        self._stream = np.random.SeedSequence(
            root.entropy, spawn_key=(*root.spawn_key, 0), pool_size=root.pool_size
        )
        self._rng = np.random.default_rng(self._stream)

    def reset(self) -> None:
        """Rewind the draw stream (fresh runs replay the same services)."""
        self._rng = np.random.default_rng(self._stream)

    def batch_latency_s(self, batch_size: int, seq_len: int) -> float:
        if batch_size == 1:  # same value and stream as a one-element draw
            return float(self._rng.exponential(self.mean_s))
        return float(self._rng.exponential(self.mean_s, size=batch_size).sum())

    def expected_latency_s(self, batch_size: int, seq_len: int) -> float:
        return batch_size * self.mean_s

    def batch_energy_j(self, batch_size: int, seq_len: int) -> float:
        return batch_size * self.request_energy_j

    def shards(self, count: int) -> list["ExponentialServiceModel"]:
        params = (self.mean_s, self.request_energy_j, self.idle_power_w)
        return [ExponentialServiceModel(*params, seed=s) for s in spawn_seeds(self.seed, count)]


class PricingCache:
    """A bounded LRU cache of ``(slot, batch, seq_len)`` timings.

    A *slot* is a small int the cache hands each distinct model
    fingerprint once (:meth:`slot`), so a lookup hashes three ints instead
    of a tuple of nested configuration dataclasses.  One instance is
    shared by default across every :class:`StarServiceModel`, so the chips
    of a fleet — and repeated sweeps over the same configuration — price
    each distinct shape exactly once, while models with different
    configurations can never collide (their fingerprints, hence their
    slots, differ).  The slot map lives in the cache, so a model pickled
    together with its cache keeps a consistent key in the copy.  Bounded
    in shapes so day-long sweeps over many shapes cannot grow memory
    without limit; the slot map grows by one entry per distinct
    configuration.
    """

    def __init__(self, maxsize: int = 4096) -> None:
        require_positive(maxsize, "maxsize")
        self.maxsize = maxsize
        self._entries: OrderedDict[tuple, tuple[float, float]] = OrderedDict()
        self._slots: dict[tuple, int] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        return key in self._entries

    def slot(self, fingerprint: tuple) -> int:
        """The key slot of a model fingerprint: equal fingerprints, equal slots."""
        return self._slots.setdefault(fingerprint, len(self._slots))

    def get(self, key: tuple) -> tuple[float, float] | None:
        """The cached timing, refreshed as most-recently used."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key: tuple, value: tuple[float, float]) -> None:
        """Insert a timing, evicting the least-recently-used beyond the bound."""
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)


#: The default cache shared by every StarServiceModel instance.
_SHARED_PRICING_CACHE = PricingCache()


class StarServiceModel(ServiceModel):
    """Batch pricing by a STAR accelerator's whole-model timing.

    ``accelerator`` defaults to a stock
    :class:`~repro.core.accelerator.STARAccelerator` with the fully
    batch-aware :meth:`~repro.core.batch_cost.BatchCostModel.streamed`
    pricing; pass one built with another ``batch_cost`` to price batches
    otherwise.  Batches are priced by its analytic
    :meth:`~repro.core.accelerator.STARAccelerator.request_timing`;
    :class:`TieredServiceModel` adds the executed schedule on top.
    ``bert_config`` sizes the served model.  Results are cached per
    ``(batch_size, seq_len)`` in ``cache`` (the process-wide shared
    :class:`PricingCache` by default), under a slot keyed by
    :func:`~repro.core.schedule_cache.chip_config_fingerprint`.
    """

    def __init__(
        self,
        accelerator=None,
        bert_config=None,
        cache: PricingCache | None = None,
        seq_len: int = 128,
    ) -> None:
        from repro.core.accelerator import STARAccelerator
        from repro.core.batch_cost import BatchCostModel
        from repro.core.schedule_cache import chip_config_fingerprint
        from repro.nn.bert import BERT_BASE, BertWorkload

        if accelerator is None:
            accelerator = STARAccelerator(batch_cost=BatchCostModel.streamed())
        self.accelerator = accelerator
        self.bert_config = bert_config or BERT_BASE
        # the model's home sequence length: the idle-power reference (and
        # the default length of the workloads it prices)
        self.seq_len = seq_len
        self._base_workload = BertWorkload(config=self.bert_config, seq_len=seq_len)
        self.cache = cache if cache is not None else _SHARED_PRICING_CACHE
        # the fingerprint is hashed once, here; lookups key by its int slot
        self._slot = self.cache.slot(
            chip_config_fingerprint(self.accelerator, self.bert_config)
        )

    @property
    def batch_cost(self):
        """The accelerator's batch-cost model (the pricing semantics)."""
        return self.accelerator.batch_cost

    @property
    def idle_power_w(self) -> float:
        """Standby power of one chip of this model (leakage over idle time).

        Referenced at the model's ``seq_len`` so the idle fraction is
        consistent with the active power the same chip is charged while
        serving that length.
        """
        return self.accelerator.resources.idle_power_w(self.seq_len)

    @property
    def reprogram_latency_s(self) -> float:
        """Full-model tile-bank rewrite: the chip-repair maintenance cost.

        A repaired chip must reprogram every layer's stationary operands
        before serving again; the cost is
        :meth:`~repro.core.batch_cost.BatchCostModel.maintenance_reprogram_latency_s`
        over the served model's weight GEMMs — charged whatever the weight
        policy, since a failed chip's conductance state is lost.
        """
        workload = self._base_workload
        per_layer = self.batch_cost.maintenance_reprogram_latency_s(
            self.accelerator.matmul_engine, workload.weight_operand_shapes_per_layer()
        )
        return workload.config.num_layers * per_layer

    @property
    def sleep_power_w(self) -> float:
        """Deep-sleep power of one chip — what a parked chip still draws.

        RRAM tile banks are non-volatile, so sleep gates the periphery
        (ADCs, drivers, digital) and keeps only retention-level leakage;
        see :class:`~repro.core.accelerator.PowerState`.  Falls back to
        idle power when the chip declares no power state (it cannot sleep
        deeper than idle).
        """
        return self.accelerator.resources.sleep_power_w(self.seq_len)

    @property
    def sleep_entry_latency_s(self) -> float:
        """Drain-and-gate time before a parked chip reaches sleep power."""
        return self.accelerator.resources.sleep_entry_latency_s

    @property
    def wake_latency_s(self) -> float:
        """Sleep-to-serving latency: peripheral wake plus array re-bias.

        The non-volatile arrays keep their conductances through sleep, so
        waking is the power state's exit latency plus one tile-VMM-scale
        re-bias settle (:meth:`~repro.core.batch_cost.BatchCostModel.wake_refresh_latency_s`)
        — *not* a maintenance reprogram, which is only needed when the
        stored state is suspect (chip repair).
        """
        resources = self.accelerator.resources
        refresh = self.batch_cost.wake_refresh_latency_s(self.accelerator.matmul_engine)
        return resources.wake_latency_s + refresh

    @property
    def wake_energy_j(self) -> float:
        """Energy of one sleep-to-serving transition."""
        resources = self.accelerator.resources
        refresh = self.batch_cost.wake_refresh_energy_j(self.accelerator.matmul_engine)
        return resources.wake_energy_j(self.seq_len) + refresh

    def _timing(self, batch_size: int, seq_len: int) -> tuple[float, float]:
        key = (self._slot, batch_size, seq_len)
        cached = self.cache.get(key)
        if cached is None:
            workload = self._base_workload.with_seq_len(seq_len).with_batch(batch_size)
            timing = self.accelerator.request_timing(workload)
            cached = (timing.latency_s, timing.energy_j)
            self.cache.put(key, cached)
        return cached

    def batch_latency_s(self, batch_size: int, seq_len: int) -> float:
        return self._timing(batch_size, seq_len)[0]

    def batch_energy_j(self, batch_size: int, seq_len: int) -> float:
        return self._timing(batch_size, seq_len)[1]


class LinearServiceModel(WrappedCapabilities):
    """A service model priced as ``batch_size x single_request``.

    Wraps any base model and discards its batch amortisation — the
    pre-batching serving behaviour, kept as an explicit baseline so sweeps
    can show what batch-aware pricing buys at the same hardware.  Chip
    capabilities forward to the wrapped model through
    :class:`WrappedCapabilities`, and one base call prices a batch, so the
    batch's fidelity tier is the base's too.
    """

    def __init__(self, base: ServiceModel) -> None:
        self.base = base

    @property
    def last_tier(self) -> int:
        return self.base.last_tier

    def batch_latency_s(self, batch_size: int, seq_len: int) -> float:
        return batch_size * self.base.batch_latency_s(1, seq_len)

    def expected_latency_s(self, batch_size: int, seq_len: int) -> float:
        return batch_size * self.base.expected_latency_s(1, seq_len)

    def batch_energy_j(self, batch_size: int, seq_len: int) -> float:
        return batch_size * self.base.batch_energy_j(1, seq_len)

    def tabulated(
        self, batch_sizes: Sequence[int], seq_lens: Sequence[int]
    ) -> "LinearServiceModel":
        """This wrapper over its base tabulated for single requests only.

        The base prices nothing but batches of one, so only those shapes
        are frozen, and a tiered base keeps sampling its tiers.
        """
        return LinearServiceModel(self.base.tabulated([1], seq_lens))

    def shards(self, count: int) -> list["LinearServiceModel"]:
        return [LinearServiceModel(base) for base in self.base.shards(count)]


class TabulatedServiceModel(ServiceModel):
    """A service model frozen into a plain ``(batch, seq_len) -> cost`` table.

    Built by :meth:`tabulate` from any other service model: every shape the
    batcher can dispatch is priced once, up front, into a dictionary of
    ``(batch_size, seq_len) -> (latency_s, energy_j)``.  The result is
    self-contained and cheap to pickle — no accelerator object, no cache —
    which is exactly what the sharded simulator ships to worker processes
    so no shard ever re-prices the workload.  Lookups of shapes outside
    the table raise ``KeyError`` loudly rather than silently re-pricing.
    """

    def __init__(
        self,
        table: dict[tuple[int, int], tuple[float, float]],
        idle_power_w: float = 0.0,
        reprogram_latency_s: float = 0.0,
        sleep_power_w: float | None = None,
        sleep_entry_latency_s: float = 0.0,
        wake_latency_s: float = 0.0,
        wake_energy_j: float = 0.0,
    ) -> None:
        if not table:
            raise ValueError("a tabulated service model needs at least one entry")
        self.table = dict(table)
        self.idle_power_w = float(idle_power_w)
        self.reprogram_latency_s = float(reprogram_latency_s)
        require_non_negative(self.idle_power_w, "idle_power_w")
        require_non_negative(self.reprogram_latency_s, "reprogram_latency_s")
        # None means "cannot sleep deeper than idle" — mirror idle power so
        # shipping a model through tabulation never invents a power state.
        self.sleep_power_w = (
            self.idle_power_w if sleep_power_w is None else float(sleep_power_w)
        )
        self.sleep_entry_latency_s = float(sleep_entry_latency_s)
        self.wake_latency_s = float(wake_latency_s)
        self.wake_energy_j = float(wake_energy_j)
        require_non_negative(self.sleep_power_w, "sleep_power_w")
        require_non_negative(self.sleep_entry_latency_s, "sleep_entry_latency_s")
        require_non_negative(self.wake_latency_s, "wake_latency_s")
        require_non_negative(self.wake_energy_j, "wake_energy_j")

    @classmethod
    def tabulate(
        cls,
        model: ServiceModel,
        batch_sizes: Sequence[int],
        seq_lens: Sequence[int],
    ) -> "TabulatedServiceModel":
        """Price every ``batch x seq_len`` shape of ``model`` into a table.

        ``batch_sizes`` should cover ``1 .. max_batch_size`` of the batcher
        in use and ``seq_lens`` every padded length the workload can
        produce; a dispatch outside the table fails loudly.
        """
        batch_sizes = sorted({int(b) for b in batch_sizes})
        seq_lens = sorted({int(s) for s in seq_lens})
        if not batch_sizes or not seq_lens:
            raise ValueError("batch_sizes and seq_lens must not be empty")
        for batch in batch_sizes:
            require_positive(batch, "batch size")
        for seq_len in seq_lens:
            require_positive(seq_len, "seq_len")
        table = {
            (batch, seq_len): (
                model.batch_latency_s(batch, seq_len),
                model.batch_energy_j(batch, seq_len),
            )
            for batch in batch_sizes
            for seq_len in seq_lens
        }
        return cls(
            table,
            idle_power_w=model.idle_power_w,
            reprogram_latency_s=model.reprogram_latency_s,
            sleep_power_w=model.sleep_power_w,
            sleep_entry_latency_s=model.sleep_entry_latency_s,
            wake_latency_s=model.wake_latency_s,
            wake_energy_j=model.wake_energy_j,
        )

    def tabulated(
        self, batch_sizes: Sequence[int], seq_lens: Sequence[int]
    ) -> "TabulatedServiceModel":
        return self

    def _entry(self, batch_size: int, seq_len: int) -> tuple[float, float]:
        try:
            return self.table[(batch_size, seq_len)]
        except KeyError:
            raise KeyError(
                f"shape (batch={batch_size}, seq_len={seq_len}) was not "
                f"tabulated; extend the batch_sizes/seq_lens grid"
            ) from None

    def batch_latency_s(self, batch_size: int, seq_len: int) -> float:
        return self._entry(batch_size, seq_len)[0]

    def batch_energy_j(self, batch_size: int, seq_len: int) -> float:
        return self._entry(batch_size, seq_len)[1]


class TieredServiceModel(WrappedCapabilities):
    """Sampled-dispatch routing between analytic and executed pricing.

    Wraps any ``base`` service model (a :class:`StarServiceModel`, or its
    shipped :class:`TabulatedServiceModel` form in sharded workers) and
    routes a seeded Bernoulli ``sample_fraction`` of
    :meth:`batch_latency_s` calls through the high-fidelity tier: a cached
    :class:`~repro.core.schedule_cache.ScheduleTemplate` resampled with
    per-layer lognormal jitter of width ``jitter_sigma``.  The remaining
    dispatches (and **every** energy query — energy is
    schedule-independent) delegate to ``base`` untouched, so
    ``sample_fraction = 0`` is bit-identical to the base model.

    After each latency call :attr:`last_tier` holds the tier that priced
    it (:data:`TIER_ANALYTIC` or :data:`TIER_EXECUTED`) — the simulator
    reads it into the report's per-batch ``tier`` column.  Templates come
    from ``templates`` (a prebuilt ``(batch, seq_len) -> template`` dict,
    the form :meth:`tabulated` / :meth:`ChipFleet.tabulated` produce for
    worker processes) or are cold-built on first use through
    ``template_cache`` from the base model's accelerator; a tabulated base
    with no prebuilt template fails loudly, mirroring
    :class:`TabulatedServiceModel`.

    ``seed`` accepts an int or a ``numpy.random.SeedSequence`` —
    :meth:`shards` re-seeds one copy per shard off one spawn tree, which is
    how the sharded simulator gives every shard an independent sampling
    stream.
    """

    def __init__(
        self,
        base: ServiceModel,
        sample_fraction: float = 0.05,
        jitter_sigma: float = 0.1,
        seed=0,
        templates: dict | None = None,
        template_cache=None,
    ) -> None:
        if not 0.0 <= sample_fraction <= 1.0:
            raise ValueError(
                f"sample_fraction must be within [0, 1], got {sample_fraction}"
            )
        require_finite(require_non_negative(jitter_sigma, "jitter_sigma"), "jitter_sigma")
        self.base = base
        self.sample_fraction = float(sample_fraction)
        self.jitter_sigma = float(jitter_sigma)
        self.seed = seed
        self.templates = {} if templates is None else dict(templates)
        self._cache = template_cache
        self._rng = np.random.default_rng(seed)
        self.last_tier = TIER_ANALYTIC
        #: Dispatches priced per tier (profiling counters).
        self.analytic_dispatches = 0
        self.executed_dispatches = 0
        #: Template lookups resolved locally vs cold-built/cache-fetched.
        self.template_hits = 0
        self.template_misses = 0

    # ------------------------------------------------------------------ #
    # seeding and shipping
    # ------------------------------------------------------------------ #
    def shards(self, count: int) -> list["TieredServiceModel"]:
        """Copies over the base's shards, each seeded by a child of this seed."""
        return [
            TieredServiceModel(
                base,
                sample_fraction=self.sample_fraction,
                jitter_sigma=self.jitter_sigma,
                seed=child,
                templates=self.templates,
                template_cache=self._cache,
            )
            for base, child in zip(self.base.shards(count), spawn_seeds(self.seed, count))
        ]

    def reset(self) -> None:
        """Rewind the sampling stream (fresh runs replay the same tiers)."""
        self._rng = np.random.default_rng(self.seed)

    def build_templates(
        self, batch_sizes: Sequence[int], seq_lens: Sequence[int]
    ) -> "TieredServiceModel":
        """Cold-build every template of the shape grid into :attr:`templates`.

        Requires a :class:`StarServiceModel` base (i.e. not yet
        tabulated).  Returns ``self`` for chaining.
        """
        for batch in sorted({int(b) for b in batch_sizes}):
            for seq_len in sorted({int(s) for s in seq_lens}):
                self._template(batch, seq_len)
        return self

    def tabulated(
        self, batch_sizes: Sequence[int], seq_lens: Sequence[int]
    ) -> "TieredServiceModel":
        """This model with base pricing frozen and all templates prebuilt.

        The returned copy wraps a :class:`TabulatedServiceModel` base and a
        complete template dict over the grid — plain picklable data, no
        accelerator objects — keeping the sampling seed, fraction and
        jitter width, so it prices dispatches identically to the original
        (templates and tabulated timings are exact copies of what the live
        model would compute).
        """
        self.build_templates(batch_sizes, seq_lens)
        return TieredServiceModel(
            self.base.tabulated(batch_sizes, seq_lens),
            sample_fraction=self.sample_fraction,
            jitter_sigma=self.jitter_sigma,
            seed=self.seed,
            templates=self.templates,
        )

    # ------------------------------------------------------------------ #
    # pricing
    # ------------------------------------------------------------------ #
    def _template(self, batch_size: int, seq_len: int):
        template = self.templates.get((batch_size, seq_len))
        if template is not None:
            self.template_hits += 1
            return template
        self.template_misses += 1
        if not isinstance(self.base, StarServiceModel):
            raise KeyError(
                f"no schedule template for shape (batch={batch_size}, "
                f"seq_len={seq_len}) and the base is no StarServiceModel "
                f"to build one from; prebuild with tabulated()/"
                f"build_templates() over a grid covering this shape"
            )
        from repro.core.schedule_cache import SHARED_TEMPLATE_CACHE
        from repro.nn.bert import BertWorkload

        cache = self._cache if self._cache is not None else SHARED_TEMPLATE_CACHE
        workload = BertWorkload(
            config=self.base.bert_config, seq_len=seq_len
        ).with_batch(batch_size)
        template = cache.get_or_build(self.base.accelerator, workload)
        self.templates[(batch_size, seq_len)] = template
        return template

    def batch_latency_s(self, batch_size: int, seq_len: int) -> float:
        if self.sample_fraction > 0.0 and (
            self.sample_fraction >= 1.0
            or self._rng.random() < self.sample_fraction
        ):
            self.last_tier = TIER_EXECUTED
            self.executed_dispatches += 1
            template = self._template(batch_size, seq_len)
            return template.resample(self._rng, self.jitter_sigma)
        self.last_tier = TIER_ANALYTIC
        self.analytic_dispatches += 1
        return self.base.batch_latency_s(batch_size, seq_len)

    def expected_latency_s(self, batch_size: int, seq_len: int) -> float:
        return self.base.expected_latency_s(batch_size, seq_len)

    def batch_energy_j(self, batch_size: int, seq_len: int) -> float:
        # energy is schedule-independent (serialized-equivalent conversion
        # rate), and this must never advance the sampling stream: the
        # simulator queries energy separately from the latency draw
        return self.base.batch_energy_j(batch_size, seq_len)


class ChipFleet:
    """``num_chips`` chips sharing one dispatch queue.

    Homogeneous fleets pass one ``service_model`` (replicated per chip);
    heterogeneous fleets pass ``service_models`` — one per chip, e.g.
    :class:`StarServiceModel` instances over different
    :class:`~repro.core.accelerator.ChipResources` tile counts.
    ``speedups`` additionally divides each chip's batch service time (and
    scales its energy down accordingly — a faster chip finishes the same
    work sooner at the same power).  Every model must be a
    :class:`ServiceModel`.
    """

    def __init__(
        self,
        service_model: ServiceModel | None = None,
        num_chips: int = 1,
        speedups: Sequence[float] | None = None,
        service_models: Sequence[ServiceModel] | None = None,
    ) -> None:
        if (service_model is None) == (service_models is None):
            raise ValueError("pass exactly one of service_model or service_models")
        if service_models is not None:
            self.models: tuple[ServiceModel, ...] = tuple(service_models)
            if not self.models:
                raise ValueError("service_models must not be empty")
            if num_chips not in (1, len(self.models)):
                raise ValueError(
                    f"got {len(self.models)} service_models for {num_chips} chips"
                )
            num_chips = len(self.models)
        else:
            require_positive_int(num_chips, "num_chips")
            self.models = (service_model,) * num_chips
        for model in self.models:
            if not isinstance(model, ServiceModel):
                raise TypeError(f"service model {model!r} is not a ServiceModel")
        self.num_chips = num_chips
        if speedups is None:
            speedups = (1.0,) * num_chips
        self.speedups = tuple(float(s) for s in speedups)
        if len(self.speedups) != num_chips:
            raise ValueError(
                f"got {len(self.speedups)} speedups for {num_chips} chips"
            )
        for speed in self.speedups:
            require_finite(speed, "chip speedup")
            require_positive(speed, "chip speedup")

    @property
    def service_model(self) -> ServiceModel:
        """The first chip's service model (the whole fleet's when homogeneous)."""
        return self.models[0]

    def batch_latency_s(self, chip: int, batch_size: int, seq_len: int) -> float:
        """Service time of the batch on one specific chip."""
        return self.models[chip].batch_latency_s(batch_size, seq_len) / self.speedups[chip]

    def expected_latency_s(self, chip: int, batch_size: int, seq_len: int) -> float:
        """Service time of the batch on one chip, advancing no random stream."""
        return self.models[chip].expected_latency_s(batch_size, seq_len) / self.speedups[chip]

    def batch_energy_j(self, chip: int, batch_size: int, seq_len: int) -> float:
        """Energy of the batch on one specific chip."""
        return self.models[chip].batch_energy_j(batch_size, seq_len) / self.speedups[chip]

    def batch_tier(self, chip: int) -> int:
        """Fidelity tier of the chip's most recent batch pricing.

        Read by the simulator immediately after :meth:`batch_latency_s`;
        :data:`TIER_ANALYTIC` for models without tiering, so the report's
        tier column stays all-zero (and silent) on untiered fleets.
        """
        return self.models[chip].last_tier

    def idle_power_w(self, chip: int) -> float:
        """Standby power of one chip."""
        return self.models[chip].idle_power_w

    def reprogram_latency_s(self, chip: int) -> float:
        """Full tile-bank rewrite time of one chip — its repair cost.

        Scaled by the chip's speed factor like any other work it performs.
        """
        return self.models[chip].reprogram_latency_s / self.speedups[chip]

    def sleep_power_w(self, chip: int) -> float:
        """Deep-sleep power of one parked chip.

        Falls back to the chip's idle power for service models that do not
        declare a power state — a chip that cannot sleep saves nothing by
        being parked, which keeps autoscaling energy accounting honest.
        """
        power = self.models[chip].sleep_power_w
        return self.idle_power_w(chip) if power is None else power

    def sleep_entry_latency_s(self, chip: int) -> float:
        """Drain-and-gate time before a parked chip reaches sleep power."""
        return self.models[chip].sleep_entry_latency_s

    def wake_latency_s(self, chip: int) -> float:
        """Sleep-to-serving latency of one chip.

        Deliberately *not* divided by the chip's speedup: waking is analog
        supply ramp and re-bias settle, not compute, so a faster chip does
        not wake faster.
        """
        return self.models[chip].wake_latency_s

    def wake_energy_j(self, chip: int) -> float:
        """Energy of one sleep-to-serving transition of one chip."""
        return self.models[chip].wake_energy_j

    def pricing_counters(self) -> tuple[int, int, int, int, int, int]:
        """Pricing/template cache and per-tier dispatch counters of the fleet.

        Each distinct :class:`PricingCache` and :class:`TieredServiceModel`
        counts once, however many chips or wrappers share it; ``run()``
        records the delta, so per-run numbers stay right with shared caches.
        """
        caches: dict[int, PricingCache] = {}
        tiered: dict[int, TieredServiceModel] = {}
        for model in self.models:
            while model is not None:
                if model.cache is not None:
                    caches[id(model.cache)] = model.cache
                if isinstance(model, TieredServiceModel):
                    tiered[id(model)] = model
                model = model.base
        return (
            sum(c.hits for c in caches.values()),
            sum(c.misses for c in caches.values()),
            sum(m.template_hits for m in tiered.values()),
            sum(m.template_misses for m in tiered.values()),
            sum(m.analytic_dispatches for m in tiered.values()),
            sum(m.executed_dispatches for m in tiered.values()),
        )

    def tabulated(
        self, batch_sizes: Sequence[int], seq_lens: Sequence[int]
    ) -> "ChipFleet":
        """This fleet with every chip's pricing frozen into plain tables.

        Pre-warms the workload's whole shape grid once in the calling
        process through each model's :meth:`ServiceModel.tabulated` and
        returns a compactly picklable fleet, so the sharded simulator can
        compute timings in the parent and ship them to every worker.  Chips
        sharing one model object share one table (a homogeneous fleet
        prices the grid exactly once); speedups are preserved (the fleet
        applies them outside the model).
        """
        tables: dict[int, ServiceModel] = {}
        for model in self.models:
            if id(model) not in tables:
                tables[id(model)] = model.tabulated(batch_sizes, seq_lens)
        return ChipFleet(
            service_models=tuple(tables[id(model)] for model in self.models),
            speedups=self.speedups,
        )
