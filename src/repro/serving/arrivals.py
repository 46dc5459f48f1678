"""Request arrival processes for the serving simulator.

A *request* is one inference query: a sequence of ``seq_len`` tokens that
arrives at ``arrival_s`` and wants a full encoder forward pass.  Two
arrival processes cover the standard serving-evaluation methodology:

* :class:`PoissonArrivals` — the open-loop memoryless arrival stream used
  by queueing-theory cross-validation and load sweeps (exponential
  inter-arrival gaps at a configured offered rate);
* :class:`TraceArrivals` — replay of an explicit timestamp trace, for
  production traces or adversarial patterns (bursts, on/off phases) that
  no closed-form process expresses.

Both support fixed or per-request sequence lengths, so a heterogeneous
length mix can flow through the dynamic batcher (a batch pads to its
longest member).

Generation is fully vectorized: timestamps come from one cumulative sum
over exponential draws, validation runs once over the whole arrays, and
the :class:`Request` objects are then built through a trusted fast path
that skips per-instance re-validation — bit-identical to constructing
each request individually, an order of magnitude cheaper at millions of
requests.  :meth:`PoissonArrivals.shards` splits a stream into
statistically exact per-shard Poisson streams (rate ``lambda / k`` each,
seeded from one ``SeedSequence.spawn`` tree) for the sharded simulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.utils.stats import spawn_seeds
from repro.utils.validation import (
    require_finite,
    require_finite_array,
    require_int_array,
    require_non_negative,
    require_non_negative_int,
    require_positive,
    require_positive_int,
)

__all__ = [
    "Request",
    "PoissonArrivals",
    "TraceArrivals",
    "MMPPArrivals",
    "DayCurveArrivals",
    "ClosedLoopClients",
]

#: Supported think-time distributions of :class:`ClosedLoopClients`.
THINK_DISTRIBUTIONS = ("exponential", "lognormal")


@dataclass(frozen=True, slots=True)
class Request:
    """One inference query entering the serving system.

    ``slo_class`` tags the request's service class (0 = default/best
    effort) and ``deadline_s`` is its completion SLO *relative to arrival*
    (``inf`` = no deadline) — both default to the pre-SLO behaviour, so
    untagged streams are unchanged.  The EDF batcher orders the queue by
    absolute deadline ``arrival_s + deadline_s``.
    """

    index: int
    arrival_s: float
    seq_len: int
    slo_class: int = 0
    deadline_s: float = math.inf

    def __post_init__(self) -> None:
        require_non_negative_int(self.index, "index")
        require_finite(self.arrival_s, "arrival_s")
        require_non_negative(self.arrival_s, "arrival_s")
        require_positive_int(self.seq_len, "seq_len")
        require_non_negative_int(self.slo_class, "slo_class")
        require_positive(self.deadline_s, "deadline_s")  # inf allowed

    @property
    def absolute_deadline_s(self) -> float:
        """The EDF sort key: when this request must have completed."""
        return self.arrival_s + self.deadline_s


_new_request = Request.__new__
_set_field = object.__setattr__


def _trusted_request(
    index: int, arrival_s: float, seq_len: int, slo_class: int, deadline_s: float
) -> Request:
    """A :class:`Request` from fields its caller has already validated.

    Assigns each field through ``object.__setattr__`` — exactly what the
    frozen dataclass's own ``__init__`` does, minus the per-instance checks
    of ``__post_init__``.
    """
    request = _new_request(Request)
    _set_field(request, "index", index)
    _set_field(request, "arrival_s", arrival_s)
    _set_field(request, "seq_len", seq_len)
    _set_field(request, "slo_class", slo_class)
    _set_field(request, "deadline_s", deadline_s)
    return request


def requests_from_arrays(
    times: np.ndarray,
    lens: np.ndarray,
    indices: Sequence[int] | None = None,
    slo_classes: np.ndarray | None = None,
    deadlines: np.ndarray | None = None,
) -> list[Request]:
    """Build a request list from timestamp/length arrays, validated once.

    The arrays are validated in one vectorized pass (finite, non-negative
    times; positive integer lengths; non-negative integer classes) and the
    :class:`Request` objects are then assembled without the per-instance
    validation the array pass already performed.  Output is bit-identical
    to calling ``Request(i, float(times[i]), int(lens[i]))`` in a loop.

    ``indices`` overrides the default ``0 .. n-1`` request indices, which
    shard splitters use to preserve the original stream's identities.
    ``slo_classes`` / ``deadlines`` carry per-request SLO tags through the
    same fast path (defaulting to class 0 / no deadline), so shard
    splitters preserve tagged streams exactly.
    """
    require_finite_array(times, "arrival timestamps")
    if times.size and times.min() < 0:
        index = int(np.argmin(times >= 0))
        raise ValueError(
            f"arrival timestamps must be non-negative, got {times[index]} "
            f"at index {index}"
        )
    lens = require_int_array(lens, "lens", 1)
    if lens.shape != times.shape:
        raise ValueError(f"got {lens.size} sequence lengths for {times.size} arrivals")
    if slo_classes is not None:
        if slo_classes.shape != times.shape:
            raise ValueError(
                f"got {slo_classes.size} SLO classes for {times.size} arrivals"
            )
        slo_classes = require_int_array(slo_classes, "slo_classes", 0)
    if deadlines is not None:
        if deadlines.shape != times.shape:
            raise ValueError(
                f"got {deadlines.size} deadlines for {times.size} arrivals"
            )
        if deadlines.size and not (deadlines > 0).all():  # NaN also fails here
            raise ValueError("deadlines must be positive (inf = no deadline)")
    index_list = range(times.size) if indices is None else indices
    classes: Iterable[int] = (
        (0,) * times.size if slo_classes is None else slo_classes.tolist()
    )
    deadline_list: Iterable[float] = (
        (math.inf,) * times.size if deadlines is None else deadlines.tolist()
    )
    return [
        _trusted_request(i, t, length, slo, deadline)
        for i, t, length, slo, deadline in zip(
            index_list, times.tolist(), lens.tolist(), classes, deadline_list
        )
    ]


def _require_seq_len(seq_len: int | Sequence[int]) -> None:
    """One positive integer length, or a non-empty sequence of them."""
    if np.ndim(seq_len) == 0:
        require_positive_int(seq_len, "seq_len")
        return
    choices = require_int_array(list(seq_len), "seq_len", 1)
    if choices.size == 0:
        raise ValueError("seq_len choices must not be empty")


def _draw_seq_lens(
    seq_len: int | Sequence[int], count: int, rng: np.random.Generator
) -> np.ndarray:
    """Fixed length, or a uniform draw over the given choices, per request.

    ``seq_len`` was checked by :func:`_require_seq_len` at construction.
    """
    if isinstance(seq_len, (int, np.integer)):
        return np.full(count, int(seq_len), dtype=np.int64)
    return rng.choice(np.asarray(list(seq_len), dtype=np.int64), size=count)


class PoissonArrivals:
    """Open-loop Poisson arrival stream at a fixed offered rate.

    ``seq_len`` is either one length for every request or a sequence of
    lengths sampled uniformly per request.  The stream is seeded and
    therefore reproducible; the same process object always generates the
    same trace for the same ``num_requests``.  ``seed`` may be an integer
    or a :class:`numpy.random.SeedSequence` (which :meth:`shards` uses to
    derive independent sub-streams).
    """

    def __init__(
        self,
        rate_rps: float,
        seq_len: int | Sequence[int] = 128,
        seed: int | np.random.SeedSequence = 0,
    ) -> None:
        require_finite(rate_rps, "rate_rps")
        require_positive(rate_rps, "rate_rps")
        _require_seq_len(seq_len)
        self.rate_rps = float(rate_rps)
        self.seq_len = seq_len
        self.seed = seed

    def generate(self, num_requests: int, index_offset: int = 0) -> list[Request]:
        """The first ``num_requests`` arrivals of the stream.

        ``index_offset`` shifts the request indices (``offset .. offset +
        n - 1``) without touching any draw — the sharded simulator uses it
        to keep indices globally unique across per-shard streams.
        """
        require_positive_int(num_requests, "num_requests")
        require_non_negative_int(index_offset, "index_offset")
        rng = np.random.default_rng(self.seed)
        gaps = rng.exponential(1.0 / self.rate_rps, size=num_requests)
        times = np.cumsum(gaps)
        lens = _draw_seq_lens(self.seq_len, num_requests, rng)
        indices = None if index_offset == 0 else range(index_offset, index_offset + num_requests)
        return requests_from_arrays(times, lens, indices)

    def shards(self, num_shards: int) -> list["PoissonArrivals"]:
        """Split into ``num_shards`` independent rate-``lambda/k`` streams.

        This is Poisson splitting done exactly: the superposition of ``k``
        independent Poisson processes at rate ``lambda / k`` is a Poisson
        process at rate ``lambda``, so each shard's stream has precisely
        the statistics the unsharded stream would deliver to it under
        random thinning.  Every shard's generator (gap draws *and* length
        draws) comes from one ``SeedSequence.spawn`` tree rooted at this
        stream's seed, so results are reproducible for any shard count and
        shards never share draws.
        """
        require_positive_int(num_shards, "num_shards")
        return [
            PoissonArrivals(self.rate_rps / num_shards, seq_len=self.seq_len, seed=child)
            for child in spawn_seeds(self.seed, num_shards)
        ]


class TraceArrivals:
    """Replay of an explicit arrival-timestamp trace.

    ``times_s`` must be non-decreasing.  ``seq_len`` is one fixed length, a
    per-request sequence matching the trace, or a set of choices sampled
    uniformly (seeded).
    """

    def __init__(
        self,
        times_s: Sequence[float],
        seq_len: int | Sequence[int] = 128,
        seed: int = 0,
        per_request_lens: Sequence[int] | None = None,
    ) -> None:
        times = np.asarray(list(times_s), dtype=np.float64)
        if times.size == 0:
            raise ValueError("an arrival trace needs at least one timestamp")
        require_finite_array(times, "arrival timestamps")
        if times.min() < 0:
            index = int(np.argmin(times >= 0))
            raise ValueError(
                f"arrival timestamps must be non-negative, got {times[index]} "
                f"at index {index}"
            )
        decreasing = np.diff(times) < 0
        if decreasing.any():
            index = int(np.argmax(decreasing)) + 1
            raise ValueError(
                f"arrival timestamps must be non-decreasing, got {times[index]} "
                f"after {times[index - 1]} at index {index}"
            )
        if per_request_lens is None:
            _require_seq_len(seq_len)
        else:
            if len(per_request_lens) != times.size:
                raise ValueError(
                    f"per_request_lens has {len(per_request_lens)} entries for "
                    f"{times.size} arrivals"
                )
            lens = np.asarray(list(per_request_lens))
            require_finite_array(lens.astype(np.float64), "per_request_lens")
            per_request_lens = require_int_array(lens, "per_request_lens", 1)
        self.times_s = times
        self.seq_len = seq_len
        self.seed = seed
        self.per_request_lens = per_request_lens

    def generate(self, num_requests: int | None = None) -> list[Request]:
        """The trace's requests (optionally truncated to ``num_requests``)."""
        count = self.times_s.size
        if num_requests is not None:
            count = min(require_positive_int(num_requests, "num_requests"), count)
        if self.per_request_lens is not None:
            lens = self.per_request_lens[:count]
        else:
            rng = np.random.default_rng(self.seed)
            lens = _draw_seq_lens(self.seq_len, count, rng)
        return requests_from_arrays(self.times_s[:count], lens)


def _segment_arrivals(
    rng: np.random.Generator,
    start_s: float,
    end_s: float,
    rate_rps: float,
    out: list[np.ndarray],
) -> None:
    """Append one constant-rate segment's Poisson arrivals to ``out``.

    Within a constant-rate segment the process is homogeneous Poisson, and
    because exponential gaps are memoryless, restarting the gap draws at
    each segment boundary is distributionally exact — this is the textbook
    construction of a piecewise-constant-rate (nonhomogeneous) Poisson
    process.  Draws are chunked (mean + 4 sigma per pass) so second-long
    segments at thousands of requests per second stay vectorized.  The
    draw sequence depends only on the segment, never on how many requests
    the caller ultimately keeps, so longer generations extend shorter ones
    prefix-exactly.
    """
    t = start_s
    while True:
        expected = max(1.0, rate_rps * (end_s - t))
        chunk = int(expected + 4.0 * math.sqrt(expected) + 16.0)
        times = t + np.cumsum(rng.exponential(1.0 / rate_rps, size=chunk))
        if times[-1] >= end_s:
            out.append(times[times < end_s])
            return
        out.append(times)
        t = float(times[-1])


class MMPPArrivals:
    """Markov-modulated Poisson process: bursty arrivals with exact theory.

    A continuous-time Markov chain over ``len(rates_rps)`` states modulates
    the arrival rate: while the chain sits in state ``i`` arrivals are
    Poisson at ``rates_rps[i]``, state sojourns are exponential with rate
    ``-Q[i, i]``, and jumps land on ``j`` with probability
    ``Q[i, j] / -Q[i, i]`` — the standard two-timescale burstiness model
    (an on/off MMPP is the classic web-traffic generator).  Unlike an
    arbitrary trace, the process has closed-form statistics: the chain's
    stationary distribution ``pi`` solves ``pi Q = 0`` and the long-run
    mean arrival rate is ``pi . rates``, which the cross-validation suite
    pins the generated stream against.

    ``transitions`` is the full generator matrix ``Q`` (rows sum to zero,
    non-negative off-diagonal, strictly negative diagonal).  Generation is
    exact and prefix-deterministic: per sojourn, the segment's arrivals are
    drawn by the memoryless piecewise construction of
    :func:`_segment_arrivals`.
    """

    def __init__(
        self,
        rates_rps: Sequence[float],
        transitions: Sequence[Sequence[float]],
        seq_len: int | Sequence[int] = 128,
        seed: int | np.random.SeedSequence = 0,
        initial_state: int = 0,
    ) -> None:
        rates = np.asarray(list(rates_rps), dtype=np.float64)
        q = np.asarray(transitions, dtype=np.float64)
        if rates.ndim != 1 or rates.size < 2:
            raise ValueError("an MMPP needs at least two modulating states")
        require_finite_array(rates, "rates_rps")
        if rates.min() < 0:
            raise ValueError(f"arrival rates must be non-negative, got {rates.min()}")
        if rates.max() <= 0:
            raise ValueError("at least one MMPP state must have a positive rate")
        if q.shape != (rates.size, rates.size):
            raise ValueError(
                f"transition matrix shape {q.shape} does not match "
                f"{rates.size} states"
            )
        require_finite_array(q, "transitions")
        off_diag = q[~np.eye(rates.size, dtype=bool)]
        if off_diag.size and off_diag.min() < 0:
            raise ValueError("off-diagonal transition rates must be non-negative")
        if np.abs(q.sum(axis=1)).max() > 1e-9 * max(1.0, np.abs(q).max()):
            raise ValueError("generator-matrix rows must sum to zero")
        if np.diagonal(q).max() >= 0:
            raise ValueError(
                "every state needs a positive exit rate (strictly negative "
                "diagonal); an absorbing state has no stationary statistics"
            )
        _require_seq_len(seq_len)
        require_non_negative_int(initial_state, "initial_state")
        if not initial_state < rates.size:
            raise ValueError(
                f"initial_state must name one of {rates.size} states, "
                f"got {initial_state}"
            )
        self.rates_rps = rates
        self.transitions = q
        self.seq_len = seq_len
        self.seed = seed
        self.initial_state = int(initial_state)

    @classmethod
    def on_off(
        cls,
        burst_rate_rps: float,
        base_rate_rps: float = 0.0,
        burst_s: float = 1.0,
        duty: float = 0.5,
        seq_len: int | Sequence[int] = 128,
        seed: int | np.random.SeedSequence = 0,
    ) -> "MMPPArrivals":
        """The classic two-state burst model.

        Bursts at ``burst_rate_rps`` last ``burst_s`` on average and cover
        a ``duty`` fraction of time; between bursts the rate drops to
        ``base_rate_rps`` (0 = pure on/off).
        """
        require_positive(burst_rate_rps, "burst_rate_rps")
        require_non_negative(base_rate_rps, "base_rate_rps")
        require_positive(burst_s, "burst_s")
        if not 0.0 < duty < 1.0:
            raise ValueError(f"duty must lie strictly in (0, 1), got {duty}")
        on_exit = 1.0 / burst_s
        off_exit = on_exit * duty / (1.0 - duty)
        return cls(
            rates_rps=(burst_rate_rps, base_rate_rps),
            transitions=((-on_exit, on_exit), (off_exit, -off_exit)),
            seq_len=seq_len,
            seed=seed,
        )

    @property
    def num_states(self) -> int:
        """Modulating states of the underlying chain."""
        return self.rates_rps.size

    @property
    def stationary_distribution(self) -> np.ndarray:
        """The chain's stationary distribution: ``pi Q = 0``, ``sum(pi) = 1``."""
        n = self.num_states
        system = np.vstack([self.transitions.T, np.ones(n)])
        target = np.zeros(n + 1)
        target[-1] = 1.0
        pi, *_ = np.linalg.lstsq(system, target, rcond=None)
        return np.clip(pi, 0.0, None) / np.clip(pi, 0.0, None).sum()

    @property
    def mean_rate_rps(self) -> float:
        """Long-run mean arrival rate ``pi . rates`` — the pinnable figure."""
        return float(self.stationary_distribution @ self.rates_rps)

    def generate(self, num_requests: int, index_offset: int = 0) -> list[Request]:
        """The first ``num_requests`` arrivals of the modulated stream."""
        require_positive_int(num_requests, "num_requests")
        require_non_negative_int(index_offset, "index_offset")
        rng = np.random.default_rng(self.seed)
        state = self.initial_state
        exit_rates = -np.diagonal(self.transitions)
        jump = np.clip(np.asarray(self.transitions), 0.0, None)
        jump /= jump.sum(axis=1, keepdims=True)
        t = 0.0
        pieces: list[np.ndarray] = []
        count = 0
        while count < num_requests:
            sojourn = rng.exponential(1.0 / exit_rates[state])
            rate = self.rates_rps[state]
            if rate > 0.0 and sojourn > 0.0:
                before = len(pieces)
                _segment_arrivals(rng, t, t + sojourn, rate, pieces)
                count += sum(piece.size for piece in pieces[before:])
            t += sojourn
            state = int(rng.choice(self.num_states, p=jump[state]))
        times = np.concatenate(pieces)[:num_requests]
        lens = _draw_seq_lens(self.seq_len, num_requests, rng)
        indices = None if index_offset == 0 else range(index_offset, index_offset + num_requests)
        return requests_from_arrays(times, lens, indices)


#: A stylized diurnal load curve: 24 hourly multipliers with a deep
#: overnight trough and a mid-afternoon peak (roughly 5:1 peak-to-trough),
#: the shape capacity planners autoscale against.
DEFAULT_DAY_CURVE = (
    0.35, 0.25, 0.20, 0.18, 0.20, 0.30,
    0.50, 0.80, 1.10, 1.30, 1.42, 1.48,
    1.50, 1.48, 1.45, 1.42, 1.38, 1.32,
    1.25, 1.15, 1.00, 0.82, 0.62, 0.45,
)


class DayCurveArrivals:
    """Diurnal traffic: a piecewise-constant day curve over a mean rate.

    ``curve`` gives relative load per equal-width bin of the ``period_s``
    cycle (the default is a stylized 24-hour curve); it is normalized so
    its mean is exactly 1, making the long-run arrival rate exactly
    ``mean_rate_rps`` whatever curve shape is passed.  Within each bin the
    stream is Poisson at the bin's rate — the exact piecewise-constant
    construction of :func:`_segment_arrivals` — so autoscaler experiments
    get real diurnal swings with known statistics.  Bins with multiplier 0
    are genuinely silent.
    """

    def __init__(
        self,
        mean_rate_rps: float,
        curve: Sequence[float] = DEFAULT_DAY_CURVE,
        period_s: float = 86400.0,
        seq_len: int | Sequence[int] = 128,
        seed: int | np.random.SeedSequence = 0,
    ) -> None:
        require_finite(mean_rate_rps, "mean_rate_rps")
        require_positive(mean_rate_rps, "mean_rate_rps")
        require_finite(period_s, "period_s")
        require_positive(period_s, "period_s")
        shape = np.asarray(list(curve), dtype=np.float64)
        if shape.size < 1:
            raise ValueError("the day curve needs at least one bin")
        require_finite_array(shape, "curve")
        if shape.min() < 0:
            raise ValueError(f"curve multipliers must be non-negative, got {shape.min()}")
        if shape.max() <= 0:
            raise ValueError("the day curve must have at least one positive bin")
        _require_seq_len(seq_len)
        self.mean_rate_rps = float(mean_rate_rps)
        self.curve = shape / shape.mean()  # normalized: mean multiplier == 1
        self.period_s = float(period_s)
        self.seq_len = seq_len
        self.seed = seed

    @property
    def num_bins(self) -> int:
        """Bins per period (24 for the default hourly day curve)."""
        return self.curve.size

    @property
    def bin_s(self) -> float:
        """Width of one curve bin."""
        return self.period_s / self.num_bins

    def generate(self, num_requests: int, index_offset: int = 0) -> list[Request]:
        """The first ``num_requests`` arrivals of the diurnal stream."""
        require_positive_int(num_requests, "num_requests")
        require_non_negative_int(index_offset, "index_offset")
        rng = np.random.default_rng(self.seed)
        pieces: list[np.ndarray] = []
        count = 0
        bin_index = 0
        while count < num_requests:
            start = bin_index * self.bin_s
            rate = self.mean_rate_rps * float(self.curve[bin_index % self.num_bins])
            if rate > 0.0:
                before = len(pieces)
                _segment_arrivals(rng, start, start + self.bin_s, rate, pieces)
                count += sum(piece.size for piece in pieces[before:])
            bin_index += 1
        times = np.concatenate(pieces)[:num_requests]
        lens = _draw_seq_lens(self.seq_len, num_requests, rng)
        indices = None if index_offset == 0 else range(index_offset, index_offset + num_requests)
        return requests_from_arrays(times, lens, indices)


def _per_client(value, num_clients: int, name: str) -> np.ndarray:
    """Broadcast one scalar, or validate one entry per client."""
    if np.ndim(value) == 0:
        return np.full(num_clients, value)
    out = np.asarray(list(value))
    if out.size != num_clients:
        raise ValueError(f"got {out.size} {name} entries for {num_clients} clients")
    return out


class ClosedLoopClients:
    """A closed population of clients with think time between requests.

    Unlike the open-loop processes above, these arrivals *react to the
    system*: each of ``num_clients`` users issues one request, waits for
    its completion, thinks for a random time, and issues the next — so a
    slow fleet throttles its own offered load instead of growing an
    unbounded queue.  This is the interactive-system model of classical
    closed queueing theory: with exponential service the single-chip limit
    is the machine-repair M/M/1//N queue whose throughput and response
    time :class:`~repro.serving.theory.MachineRepairQueue` gives in closed
    form.

    Think times are exponential with mean ``think_s`` or lognormal with
    the same mean (``think_sigma`` shapes the log scale; the location is
    mean-preserving, so theory comparisons keep their ``Z``).  Per-client
    ``slo_class`` / ``deadline_s`` let one population mix service classes
    — e.g. interactive clients with tight deadlines alongside batch
    clients with loose ones.  Clients start thinking at time 0 (the
    standard initial condition).  All draws come from one seeded
    generator, consumed in event order by the simulator's closed loop, so
    runs are exactly reproducible.
    """

    def __init__(
        self,
        num_clients: int,
        think_s: float,
        think_distribution: str = "exponential",
        think_sigma: float = 1.0,
        seq_len: int | Sequence[int] = 128,
        slo_class: int | Sequence[int] = 0,
        deadline_s: float | Sequence[float] = math.inf,
        seed: int | np.random.SeedSequence = 0,
    ) -> None:
        require_positive_int(num_clients, "num_clients")
        require_finite(think_s, "think_s")
        require_positive(think_s, "think_s")
        if think_distribution not in THINK_DISTRIBUTIONS:
            raise ValueError(
                f"think_distribution must be one of {THINK_DISTRIBUTIONS}, "
                f"got {think_distribution!r}"
            )
        # an infinite sigma draws NaN think times
        require_finite(require_positive(think_sigma, "think_sigma"), "think_sigma")
        _require_seq_len(seq_len)
        self.num_clients = int(num_clients)
        self.think_s = float(think_s)
        self.think_distribution = think_distribution
        self.think_sigma = float(think_sigma)
        self.seq_len = seq_len
        self.slo_classes = require_int_array(
            _per_client(slo_class, self.num_clients, "slo_class"), "slo_class", 0
        )
        self.deadlines_s = _per_client(
            deadline_s, self.num_clients, "deadline_s"
        ).astype(np.float64)
        if not (self.deadlines_s > 0).all():
            raise ValueError("deadlines must be positive (inf = no deadline)")
        self.seed = seed

    def session(self) -> "ClientSession":
        """A fresh draw stream for one simulation run."""
        return ClientSession(self)


class ClientSession:
    """The consumable randomness of one closed-loop run.

    Think times and sequence lengths are drawn in buffered chunks (one
    vectorized draw per ~1024 requests) but handed out one at a time in
    the order the event loop asks, so the stream is deterministic in the
    seed and cheap at tens of thousands of requests.
    """

    _CHUNK = 1024

    def __init__(self, clients: ClosedLoopClients) -> None:
        self.clients = clients
        self._rng = np.random.default_rng(clients.seed)
        self._think: list[float] = []
        self._lens: list[int] = []
        self._classes: list[int] = clients.slo_classes.tolist()
        self._deadlines: list[float] = clients.deadlines_s.tolist()
        fixed = isinstance(clients.seq_len, (int, np.integer))
        self._fixed_len = int(clients.seq_len) if fixed else None

    def next_think_s(self) -> float:
        """One think-time draw (exponential or mean-preserving lognormal)."""
        if not self._think:
            clients = self.clients
            if clients.think_distribution == "exponential":
                draws = self._rng.exponential(clients.think_s, size=self._CHUNK)
            else:
                sigma = clients.think_sigma
                mu = math.log(clients.think_s) - 0.5 * sigma * sigma
                draws = self._rng.lognormal(mu, sigma, size=self._CHUNK)
            self._think = draws.tolist()
        return self._think.pop()

    def next_seq_len(self) -> int:
        """One sequence-length draw (fixed lengths never touch the rng)."""
        if self._fixed_len is not None:
            return self._fixed_len
        if not self._lens:
            self._lens = _draw_seq_lens(
                self.clients.seq_len, self._CHUNK, self._rng
            ).tolist()
        return self._lens.pop()

    def request(self, index: int, arrival_s: float, client: int) -> Request:
        """The next request of ``client``, issued at ``arrival_s``.

        Every field is valid by construction — the length comes from a
        validated draw, the class and deadline from the per-client arrays
        :class:`ClosedLoopClients` checked, the arrival from the simulator's
        clock — so the request skips :class:`Request`'s own validation.
        """
        return _trusted_request(
            index,
            arrival_s,
            self.next_seq_len(),
            self._classes[client],
            self._deadlines[client],
        )
