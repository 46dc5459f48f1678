"""Small statistics and random-stream helpers shared across the package."""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "percentile",
    "summarize",
    "percentile_range",
    "geometric_mean",
    "relative_error",
    "kl_divergence",
    "spawn_seeds",
]


def percentile(
    values: Iterable[float],
    q: float | Sequence[float],
    weights: Iterable[float] | None = None,
) -> float | np.ndarray:
    """Linearly interpolated percentile(s), optionally weighted.

    Without ``weights`` this matches ``np.percentile(values, q)`` (linear
    interpolation) exactly.  With ``weights`` each sorted value sits at the
    normalised position ``before / (before + after)``, where ``before`` and
    ``after`` are the total weight strictly below and above it — the
    weighted generalisation of the ``i / (n - 1)`` plotting positions,
    reducing to them for equal weights — and ``q`` is interpolated between
    those positions.  The serving report uses this for tail latencies over
    completed-request records (and for duration-weighted queue depths).

    A scalar ``q`` returns a float, a sequence returns an array.
    """
    # arrays pass straight through: list(values) on a million-sample
    # latency column would build a million boxed scalars first
    if isinstance(values, np.ndarray):
        arr = values.astype(np.float64, copy=False).ravel()
    else:
        arr = np.asarray(list(values), dtype=np.float64).ravel()
    if arr.size == 0:
        raise ValueError("cannot take a percentile of an empty sequence")
    q_arr = np.atleast_1d(np.asarray(q, dtype=np.float64))
    if np.any(q_arr < 0.0) or np.any(q_arr > 100.0):
        raise ValueError(f"percentiles must lie in [0, 100], got {q}")
    if weights is None:
        result = np.percentile(arr, q_arr)
    else:
        if isinstance(weights, np.ndarray):
            w = weights.astype(np.float64, copy=False).ravel()
        else:
            w = np.asarray(list(weights), dtype=np.float64).ravel()
        if w.shape != arr.shape:
            raise ValueError(f"got {w.size} weights for {arr.size} values")
        if np.any(w < 0.0) or w.sum() == 0.0:
            raise ValueError("weights must be non-negative and not all zero")
        order = np.argsort(arr, kind="stable")
        ordered, w = arr[order], w[order]
        # zero-weight values carry no mass and must not anchor the edges
        mass = w > 0.0
        ordered, w = ordered[mass], w[mass]
        cum = np.cumsum(w)
        before = cum - w
        after = cum[-1] - cum
        span = before + after  # total minus own weight
        if np.any(span == 0.0):
            # one value carries all the mass; every percentile is it
            result = np.full_like(q_arr, ordered[int(np.argmax(span == 0.0))])
        else:
            result = np.interp(q_arr / 100.0, before / span, ordered)
    if np.isscalar(q) or np.ndim(q) == 0:
        return float(result[0])
    return result


def summarize(
    values: Iterable[float], weights: Iterable[float] | None = None
) -> dict[str, float]:
    """Return a dictionary of common summary statistics for ``values``.

    ``weights`` (optional) makes the mean and the p50/p95/p99 tail
    percentiles weighted — e.g. duration-weighted queue depths in the
    serving report.
    """
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        raise ValueError("cannot summarise an empty sequence")
    w = None if weights is None else list(weights)
    p50, p95, p99 = percentile(arr, (50.0, 95.0, 99.0), weights=w)
    if w is None:
        mean = float(np.mean(arr))
        std = float(np.std(arr))
    else:
        mean = float(np.average(arr, weights=w))
        std = float(np.sqrt(np.average((arr - mean) ** 2, weights=w)))
    return {
        "count": float(arr.size),
        "mean": mean,
        "std": std,
        "min": float(np.min(arr)),
        "p50": float(p50),
        "p95": float(p95),
        "p99": float(p99),
        "max": float(np.max(arr)),
    }


def percentile_range(values: np.ndarray, coverage: float = 0.999) -> tuple[float, float]:
    """Symmetric percentile range covering ``coverage`` of the distribution.

    The bit-width analysis uses this to discard extreme outliers before
    sizing the integer part of the fixed-point format.
    """
    if not 0.0 < coverage <= 1.0:
        raise ValueError(f"coverage must be in (0, 1], got {coverage}")
    arr = np.asarray(values, dtype=np.float64).ravel()
    if arr.size == 0:
        raise ValueError("cannot compute percentile range of an empty array")
    tail = (1.0 - coverage) / 2.0 * 100.0
    low = float(np.percentile(arr, tail))
    high = float(np.percentile(arr, 100.0 - tail))
    return low, high


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean; standard way to aggregate speedup ratios."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("cannot compute geometric mean of an empty sequence")
    if np.any(arr <= 0):
        raise ValueError("geometric mean requires strictly positive values")
    return float(np.exp(np.mean(np.log(arr))))


def relative_error(measured: float, reference: float) -> float:
    """``|measured - reference| / |reference|`` with a zero-reference guard."""
    if reference == 0:
        return float("inf") if measured != 0 else 0.0
    return abs(measured - reference) / abs(reference)


def kl_divergence(p: np.ndarray, q: np.ndarray, epsilon: float = 1e-12) -> float:
    """KL divergence ``D(p || q)`` between two probability vectors.

    Used to quantify how far the fixed-point RRAM softmax output drifts from
    the exact floating-point softmax distribution.
    """
    p = np.asarray(p, dtype=np.float64).ravel()
    q = np.asarray(q, dtype=np.float64).ravel()
    if p.shape != q.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {q.shape}")
    p = np.clip(p, epsilon, None)
    q = np.clip(q, epsilon, None)
    p = p / p.sum()
    q = q / q.sum()
    return float(np.sum(p * np.log(p / q)))


def spawn_seeds(seed: int | np.random.SeedSequence, count: int) -> list[np.random.SeedSequence]:
    """``count`` independent children of an int or ``SeedSequence`` seed.

    An int roots a new tree; a ``SeedSequence`` spawns its next children.
    """
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    return seed.spawn(count)
