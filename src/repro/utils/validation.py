"""Argument-validation helpers used across the package.

Keeping these in one place gives consistent error messages and keeps the
simulation code free of repetitive boilerplate.
"""

from __future__ import annotations

import numbers
from typing import Any

import numpy as np

__all__ = [
    "require_positive",
    "require_positive_int",
    "require_non_negative_int",
    "require_int_array",
    "require_non_negative",
    "require_in_range",
    "require_power_of_two",
    "require_finite",
    "require_finite_array",
    "as_1d_float_array",
    "as_2d_float_array",
]


def require_positive(value: float, name: str) -> float:
    """Raise ``ValueError`` unless ``value > 0``."""
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


def require_positive_int(value: int, name: str) -> int:
    """Raise ``ValueError`` unless ``value`` is an integer ``>= 1``.

    NumPy integer scalars pass; floats fail even when integral-valued, so a
    fractional count can never be silently priced as a partial batch.
    """
    if not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return require_positive(value, name)


def require_non_negative_int(value: int, name: str) -> int:
    """Raise ``ValueError`` unless ``value`` is an integer ``>= 0``.

    For indices and ids, where 0 is meaningful; floats fail as in
    :func:`require_positive_int`.
    """
    if not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return require_non_negative(value, name)


def require_int_array(values: Any, name: str, minimum: int) -> np.ndarray:
    """``values`` as an integer array with every entry ``>= minimum``.

    An integer array passes unchanged; any other array must hold finite,
    integral values and comes back as ``int64``.  Otherwise ``ValueError``
    names the first offending entry and its index, so a fractional length
    or class is never silently truncated.
    """
    array = np.asarray(values)
    if array.dtype.kind in "iu":
        valid = array >= minimum
    else:
        floats = array.astype(np.float64)
        valid = np.isfinite(floats) & (floats == np.floor(floats)) & (floats >= minimum)
    if not valid.all():
        index = int(np.argmin(valid))
        raise ValueError(
            f"{name} must be integers >= {minimum}, got {array.flat[index]} "
            f"at index {index}"
        )
    return array if array.dtype.kind in "iu" else floats.astype(np.int64)


def require_finite(value: float, name: str) -> float:
    """Raise ``ValueError`` unless ``value`` is a finite number.

    Comparison-based checks silently pass NaN (every comparison against NaN
    is false), so validators that gate on ``value < 0`` or ``value > 0``
    need this companion to reject NaN/inf explicitly.
    """
    if not np.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


def require_finite_array(values: np.ndarray, name: str) -> np.ndarray:
    """Raise ``ValueError`` naming the first offending index unless all finite."""
    finite = np.isfinite(values)
    if not finite.all():
        index = int(np.argmin(finite))
        raise ValueError(
            f"{name} must be finite, got {values.flat[index]} at index {index}"
        )
    return values


def require_non_negative(value: float, name: str) -> float:
    """Raise ``ValueError`` unless ``value >= 0`` (NaN fails too)."""
    if not value >= 0:
        raise ValueError(f"{name} must be non-negative, got {value}")
    return value


def require_in_range(value: float, low: float, high: float, name: str) -> float:
    """Raise ``ValueError`` unless ``low <= value <= high``."""
    if not low <= value <= high:
        raise ValueError(f"{name} must be in [{low}, {high}], got {value}")
    return value


def require_power_of_two(value: int, name: str) -> int:
    """Raise ``ValueError`` unless ``value`` is a positive power of two."""
    if value <= 0 or (value & (value - 1)) != 0:
        raise ValueError(f"{name} must be a positive power of two, got {value}")
    return value


def as_1d_float_array(values: Any, name: str) -> np.ndarray:
    """Coerce ``values`` to a 1-D float64 array, raising on higher rank."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    return arr


def as_2d_float_array(values: Any, name: str) -> np.ndarray:
    """Coerce ``values`` to a 2-D float64 array, raising on other ranks."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be two-dimensional, got shape {arr.shape}")
    return arr
