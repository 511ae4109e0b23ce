"""Internal helpers for nullable numeric series.

Series cross the public API as sequences with ``None`` (or NaN) marking
missing values; internally everything is a float ndarray with NaN.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Sequence

import numpy as np

from .errors import NonFinite


def as_array(values: Sequence[float | None]) -> np.ndarray:
    """Copy a nullable sequence into a float array, None -> NaN."""
    return np.array(values, dtype=float)


@contextmanager
def refusing(message: str):
    """Refuse a numpy overflow, division by zero or invalid operation as ``NonFinite(message)``."""
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            yield
    except FloatingPointError:
        raise NonFinite(message) from None


def nonnull(arr: np.ndarray) -> np.ndarray:
    return arr[~np.isnan(arr)]


def runs(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Starts and exclusive ends of the maximal runs of equal values.

    NaN equals nothing, so each null is a run of its own; an empty array
    has no runs.
    """
    change = np.flatnonzero(arr[1:] != arr[:-1]) + 1
    starts, ends = np.r_[0, change], np.r_[change, arr.size]
    return (starts, ends) if arr.size else (starts[:0], ends[:0])


# numpy's own ``np.percentile`` and ``np.median`` import ``numpy.ma`` on first
# use (through ``np.unique`` and their NaN check), a cost every process pays.
def percentile(x: np.ndarray, q: Sequence[float]) -> np.ndarray:
    """``np.percentile(x, q)``, method ``linear``, of a non-empty NaN-free
    1-D float array, to the bit: the same order statistics from the same
    partition, interpolated as numpy's ``_lerp`` does."""
    index = (x.size - 1) * np.true_divide(q, 100)
    lo = np.floor(index)
    hi = lo + 1
    lo[index >= x.size - 1] = hi[index >= x.size - 1] = -1  # both the last value
    lo, hi = lo.astype(np.intp), hi.astype(np.intp)
    part = np.partition(x, sorted({0, -1, *lo.tolist(), *hi.tolist()}))
    t = index - lo
    diff = part[hi] - part[lo]
    out = part[lo] + diff * t
    np.subtract(part[hi], diff * (1 - t), out=out, where=t >= 0.5)
    return out


def median(x: np.ndarray) -> np.floating:
    """``np.median(x)`` of a non-empty NaN-free 1-D float array, to the
    bit: the ``mean`` of the middle values, so two middle ``-0.0`` give
    ``0.0``."""
    k, even = x.size // 2, x.size % 2 == 0
    part = np.partition(x, [k - 1, k, -1] if even else [k, -1])
    return part[k - 1 if even else k:k + 1].mean()
