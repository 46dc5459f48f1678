"""In-memory span tracer wrapped around public ``repro.*`` functions.

The traced run of the benchmark installs thin wrappers around the public
functions that form the repository's layer boundaries (the crossbar VMM
kernel, the softmax engine, the executed scheduler, batch pricing, the
serving loop, ...).  Every wrapped call records one span: its name, start,
end and the index of the enclosing span, kept in flat in-memory lists and
written out as JSON once the benchmark ends.  Nothing under ``src/`` is
modified; the wrappers are installed on the classes and modules for the
traced repetition only and removed afterwards.
"""

from __future__ import annotations

import json
import math
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable

import numpy as np

__all__ = ["SIM_TAIL_CAP", "Tracer", "finite", "tail_percentile"]

#: ``sim_tail_ms`` stops at p99: on the serving traces the strict
#: ten-beyond percentile (p99.98) rests on ten requests and swings by ~20 %
#: from seed to seed, and p99.9 still by ~15 %.
SIM_TAIL_CAP = 99.0


def tail_percentile(samples: np.ndarray, cap: float = 100.0) -> tuple[float, float]:
    """``(percentile, value)`` of the highest percentile with >=10 samples beyond it.

    ``percentile`` is ``100 * (1 - 10 / n)`` (exactly ten of ``n`` samples
    lie beyond it), or ``cap`` if that is lower.  With ten samples or fewer
    no such percentile exists and ``(0.0, 0.0)`` is returned.
    """
    n = samples.size
    if n <= 10:
        return 0.0, 0.0
    q = min(cap, 100.0 * (1.0 - 10.0 / n))
    return q, float(np.percentile(samples, q))


class Tracer:
    """Records one span per call of every wrapped function.

    ``wrap(owner, attr, name)`` replaces ``owner.attr`` (a class method or
    a module-level function) by a recording wrapper; ``name`` is either the
    span name or a callable computing it from the call's arguments (used
    to split the crossbar kernel into its ideal and noisy paths).  An
    optional ``count`` callable adds a work count per call (vectors,
    rows) to :attr:`counts` under ``<span name>.<count_name>``.
    ``restore()`` puts every original back.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.span_parent: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    # installation
    # ------------------------------------------------------------------ #
    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(
        self,
        owner,
        attr: str,
        name: str | Callable[..., str],
        count: tuple[str, Callable[..., float]] | None = None,
    ) -> None:
        """Install a recording wrapper around ``owner.attr``."""
        original = (
            owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        )
        fixed_id = self._name_id(name) if isinstance(name, str) else None
        names = self.span_name
        starts = self.span_start
        ends = self.span_end
        parents = self.span_parent
        stack = self._stack
        counts = self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if fixed_id is not None:
                nid = fixed_id
            else:
                nid = self._name_id(name(*args, **kwargs))
            if count is not None:
                counts[f"{self.names[nid]}.{count[0]}"] += count[1](*args, **kwargs)
            index = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                ends[index] = clock()
                starts[index] = start
                stack.pop()

        self._originals.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        """Remove every installed wrapper (last installed first)."""
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    # analysis
    # ------------------------------------------------------------------ #
    def _arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        names = np.asarray(self.span_name, dtype=np.int64)
        durations = np.asarray(self.span_end) - np.asarray(self.span_start)
        parents = np.asarray(self.span_parent, dtype=np.int64)
        return names, durations, parents

    def layer_metrics(self, high_volume: tuple[str, ...]) -> dict[str, float]:
        """Per span name: calls, busy_s (inclusive) and self_s.

        ``busy_s`` sums only the outermost span of each name along a call
        chain, so a function re-entering itself is not counted twice.
        ``self_s`` is each span's duration minus the part covered by its
        direct children.  Names in ``high_volume`` also get the median
        per-call latency (``p50_us``) and the highest percentile with at
        least ten calls beyond it (``tail_us`` at ``tail_pct``); ``calls``
        is their sample count.
        """
        names, durations, parents = self._arrays()
        child_time = np.zeros_like(durations)
        has_parent = parents >= 0
        np.add.at(child_time, parents[has_parent], durations[has_parent])
        self_time = durations - child_time
        outermost = np.ones(names.size, dtype=bool)
        for index in range(names.size):
            parent = parents[index]
            while parent >= 0:
                if names[parent] == names[index]:
                    outermost[index] = False
                    break
                parent = parents[parent]
        metrics: dict[str, float] = {}
        for nid, name in enumerate(self.names):
            mask = names == nid
            calls = int(np.count_nonzero(mask))
            metrics[f"{name}.calls"] = float(calls)
            metrics[f"{name}.busy_s"] = float(durations[mask & outermost].sum())
            metrics[f"{name}.self_s"] = float(self_time[mask].sum())
            if name in high_volume:
                samples = durations[mask] * 1e6
                q, tail = tail_percentile(samples)
                metrics[f"{name}.p50_us"] = (
                    float(np.median(samples)) if samples.size else 0.0
                )
                metrics[f"{name}.tail_us"] = tail
                metrics[f"{name}.tail_pct"] = q
        metrics.update(self.counts)
        return metrics

    @property
    def num_spans(self) -> int:
        return len(self.span_name)

    def write(self, path: Path, meta: dict) -> None:
        """Write every span (name, start, end, parent) as one JSON file."""
        origin = min(self.span_start, default=0.0)
        spans = [
            [self.names[n], round(s - origin, 9), round(e - origin, 9), p]
            for n, s, e, p in zip(
                self.span_name, self.span_start, self.span_end, self.span_parent
            )
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            json.dump({**meta, "fields": ["name", "start_s", "end_s", "parent"], "spans": spans}, handle)


def finite(value: float) -> float:
    """``value`` if finite, else 0.0 (JSON has no NaN/inf)."""
    return value if math.isfinite(value) else 0.0
