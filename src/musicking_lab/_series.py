"""Internal helpers for nullable numeric series.

Series cross the public API as sequences with ``None`` (or NaN) marking
missing values; internally everything is a float ndarray with NaN.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def as_array(values: Sequence[float | None]) -> np.ndarray:
    """Copy a nullable sequence into a float array, None -> NaN."""
    return np.array(values, dtype=float)


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
