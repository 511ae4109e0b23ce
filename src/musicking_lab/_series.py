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
