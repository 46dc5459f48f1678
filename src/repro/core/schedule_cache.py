"""Cached executed-schedule templates: high-fidelity pricing at dispatch rate.

A cold :meth:`~repro.core.accelerator.STARAccelerator.executed_model_schedule`
run simulates every attention row of every encoder layer through the
executed pipeline scheduler and every batched GEMM through the tile-bank
executor — milliseconds to tenths of a second of wall clock per
``(batch, seq_len)`` shape, orders of magnitude too slow to sit inside a
serving dispatch loop that prices tens of thousands of batches per second.
This module makes the executed path cheap enough to *sample* at fleet
scale:

* :func:`build_schedule_template` runs the executed schedule **once**,
  jitter-free, and captures a :class:`ScheduleTemplate` — the bit-exact
  jitter-free makespan plus the steady-state structure jitter acts on
  (the aggregate per-row stage intervals and the row count of the
  pipelined phase).
* :meth:`ScheduleTemplate.resample` then prices one jittered dispatch as
  a vectorized recombination: all per-layer lognormal stage factors come
  from **one** ``Generator.standard_normal`` call and shift each layer's
  steady-state bottleneck interval analytically — no schedule execution,
  no per-row loop — typically >1000x faster than the cold run it replaces.
* :class:`ScheduleTemplateCache` memoizes templates per
  ``(chip-config fingerprint, batch_size, seq_len)`` so a fleet (and
  every sweep over the same configuration) pays each cold build exactly
  once.

Resampling model
----------------

The executed attention pipeline settles into a steady state where rows
leave at the bottleneck stage's aggregate interval: the analytical model
writes the makespan as ``fill + (num_rows - 1) * bottleneck`` and the
executed schedule reproduces it within the pooling granularity.  A
per-layer lognormal factor matrix ``F`` (one row per encoder layer, one
column per pipeline stage) shifts layer ``l``'s steady interval from
``max_k(steady_k)`` to ``max_k(steady_k * F[l, k])``, so the template
prices the layer's slowdown as ``(num_rows - 1)`` times that interval
growth, clipped below at zero.  The clip is the physical reading: in a
deeply pipelined system the makespan is a *max* over a huge ensemble of
row paths, so a stage that momentarily speeds up hands the critical path
to a sibling stage (no net gain), while a slowdown of the bottleneck adds
directly.  Two exact properties fall out by construction and are pinned
by the property suite:

* with unit factors (``sigma = 0``) the resampled latency **is** the
  cold jitter-free executed latency, bit-exactly;
* every jittered draw is bounded below by the jitter-free critical path.

Templates are plain picklable objects (floats and one small tuple), so
the sharded serving simulator builds them once in the parent process and
ships them to workers next to the tabulated pricing tables.

Fingerprint & rebuild conditions
--------------------------------

:func:`chip_config_fingerprint` keys a template by everything that moves
the executed timing: the accelerator type, the served
:class:`~repro.nn.bert.BertConfig`, the chip's
:class:`~repro.core.config.STARConfig`, its softmax-engine count, the
system-overhead model and the batch-cost model — the same key the
analytic :class:`~repro.serving.fleet.PricingCache` slots use, so
accelerators on one :class:`~repro.core.accelerator.ChipResources` and
one batch cost share both.  Templates are always built jitter-free; a
template is rebuilt only when the fingerprint or the
``(batch_size, seq_len)`` shape changes — per-dispatch jitter never
invalidates it.
"""

from __future__ import annotations

import math
from collections import OrderedDict

import numpy as np

from repro.utils.validation import require_finite, require_non_negative, require_positive

__all__ = [
    "NUM_STAGES",
    "ScheduleTemplate",
    "ScheduleTemplateCache",
    "build_schedule_template",
    "chip_config_fingerprint",
]

#: Pipeline stages of the attention chain (score GEMM, softmax, context GEMM).
NUM_STAGES = 3


class ScheduleTemplate:
    """One jitter-free executed schedule, frozen for per-dispatch resampling.

    ``base_latency_s`` is the cold executed whole-model latency (bit-exact);
    ``steady_row_s`` the aggregate per-row intervals of the three attention
    stages (already divided by the stream/engine counts, i.e. what the
    pipeline's steady state drains at); ``num_rows`` the rows of one
    layer's pipelined phase; ``energy_j`` the batch's active energy, which
    is schedule-independent (the serialized-equivalent conversion energy)
    and carried for standalone consumers.
    """

    __slots__ = (
        "batch_size",
        "seq_len",
        "num_layers",
        "num_rows",
        "base_latency_s",
        "energy_j",
        "steady_row_s",
        "_steady",
        "_bottleneck",
    )

    def __init__(
        self,
        batch_size: int,
        seq_len: int,
        num_layers: int,
        num_rows: int,
        base_latency_s: float,
        energy_j: float,
        steady_row_s: tuple[float, float, float],
    ) -> None:
        require_positive(batch_size, "batch_size")
        require_positive(seq_len, "seq_len")
        require_positive(num_layers, "num_layers")
        require_positive(num_rows, "num_rows")
        require_finite(require_positive(base_latency_s, "base_latency_s"), "base_latency_s")
        require_finite(require_non_negative(energy_j, "energy_j"), "energy_j")
        if len(steady_row_s) != NUM_STAGES:
            raise ValueError(
                f"steady_row_s needs one interval per stage "
                f"({NUM_STAGES}), got {len(steady_row_s)}"
            )
        self.batch_size = int(batch_size)
        self.seq_len = int(seq_len)
        self.num_layers = int(num_layers)
        self.num_rows = int(num_rows)
        self.base_latency_s = float(base_latency_s)
        self.energy_j = float(energy_j)
        self.steady_row_s = tuple(float(s) for s in steady_row_s)
        self._steady = np.asarray(self.steady_row_s, dtype=np.float64)
        self._bottleneck = float(self._steady.max())

    def __getstate__(self):
        return (
            self.batch_size,
            self.seq_len,
            self.num_layers,
            self.num_rows,
            self.base_latency_s,
            self.energy_j,
            self.steady_row_s,
        )

    def __setstate__(self, state) -> None:
        self.__init__(*state)

    def __repr__(self) -> str:
        return (
            f"ScheduleTemplate(batch={self.batch_size}, seq_len={self.seq_len}, "
            f"layers={self.num_layers}, base={self.base_latency_s:.6g}s)"
        )

    @property
    def bottleneck_row_s(self) -> float:
        """Steady-state interval of the jitter-free critical stage."""
        return self._bottleneck

    def sample_latency_s(self, factors: np.ndarray) -> float:
        """Latency under one per-layer/per-stage factor matrix.

        ``factors`` has shape ``(num_layers, NUM_STAGES)``; a unit matrix
        reproduces :attr:`base_latency_s` exactly.  Each layer contributes
        ``(num_rows - 1)`` times the growth of its steady bottleneck
        interval, clipped below at zero (see the module docstring for why
        speedups are absorbed and slowdowns add).
        """
        factors = np.asarray(factors, dtype=np.float64)
        if factors.shape != (self.num_layers, NUM_STAGES):
            raise ValueError(
                f"factors must have shape ({self.num_layers}, {NUM_STAGES}), "
                f"got {factors.shape}"
            )
        shifted = (factors * self._steady).max(axis=1)
        delta = (self.num_rows - 1) * np.maximum(shifted - self._bottleneck, 0.0)
        return self.base_latency_s + float(delta.sum())

    def resample(self, rng: np.random.Generator, sigma: float) -> float:
        """One jittered dispatch latency: draw all layer factors at once.

        The whole draw is a single ``standard_normal`` call of
        ``num_layers x NUM_STAGES`` deviates — the vectorized stand-in for
        re-running the event executor with per-layer jitter streams.
        ``sigma = 0`` returns the bit-exact jitter-free latency without
        touching the generator, so jitter-off runs stay bit-deterministic.
        ``sigma`` must be finite and non-negative (NaN fails too); this runs
        per dispatch, so the check is one chained scalar comparison.
        """
        if not 0.0 <= sigma < math.inf:
            raise ValueError(f"sigma must be finite and non-negative, got {sigma}")
        if sigma == 0.0:
            return self.base_latency_s
        factors = np.exp(
            sigma * rng.standard_normal((self.num_layers, NUM_STAGES))
        )
        return self.sample_latency_s(factors)


def chip_config_fingerprint(accelerator, bert_config) -> tuple:
    """Hashable identity of everything that moves an accelerator's timing.

    Keys both the executed-schedule templates and the analytic
    :class:`~repro.serving.fleet.PricingCache` slots: the accelerator type
    (a subclass may override the timing model), the served model, the
    chip's configuration, softmax-engine count and system overhead (which
    feeds ``power_w``, hence energy) and the batch-cost model.
    """
    return (
        type(accelerator),
        bert_config,
        accelerator.config,
        accelerator.num_softmax_engines,
        accelerator.system_overhead,
        accelerator.batch_cost,
    )


def build_schedule_template(accelerator, workload) -> ScheduleTemplate:
    """Run the executed schedule once, jitter-free, and freeze the result.

    The captured ``base_latency_s`` is bit-exactly what
    ``accelerator.executed_model_schedule(workload)`` reports.  Energy
    comes from :meth:`~repro.core.accelerator.STARAccelerator.request_timing`
    — active energy is charged at the serialized-equivalent conversion
    rate and is schedule-independent, so no second executed run is needed.
    """
    schedule = accelerator.executed_model_schedule(workload)
    timing = accelerator.attention_stage_timing(workload)
    return ScheduleTemplate(
        batch_size=workload.batch_size,
        seq_len=workload.seq_len,
        num_layers=workload.config.num_layers,
        num_rows=timing.num_rows,
        base_latency_s=schedule.total_latency_s,
        energy_j=accelerator.request_timing(workload).energy_j,
        steady_row_s=(
            timing.score_row_s,
            timing.softmax_row_s,
            timing.context_row_s,
        ),
    )


class ScheduleTemplateCache:
    """Bounded LRU cache of templates keyed by fingerprint and shape.

    Mirrors :class:`~repro.serving.fleet.PricingCache`: one instance can be
    shared across every tiered service model of a fleet (and every fleet of
    a sweep), with ``hits`` / ``misses`` counters the profiling layer
    surfaces.  Bounded so long sweeps over many shapes cannot grow memory
    without limit — though templates are small, cold builds are not, so
    the default bound is generous.
    """

    def __init__(self, maxsize: int = 1024) -> None:
        require_positive(maxsize, "maxsize")
        self.maxsize = maxsize
        self._entries: OrderedDict[tuple, ScheduleTemplate] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        return key in self._entries

    def get_or_build(self, accelerator, workload) -> ScheduleTemplate:
        """The cached template for this chip/shape, cold-building on miss."""
        key = (
            chip_config_fingerprint(accelerator, workload.config),
            workload.batch_size,
            workload.seq_len,
        )
        template = self._entries.get(key)
        if template is not None:
            self._entries.move_to_end(key)
            self.hits += 1
            return template
        self.misses += 1
        template = build_schedule_template(accelerator, workload)
        self._entries[key] = template
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
        return template


#: The default cache shared by every TieredServiceModel instance.
SHARED_TEMPLATE_CACHE = ScheduleTemplateCache()
