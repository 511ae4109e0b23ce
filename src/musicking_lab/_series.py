"""Internal helpers for nullable numeric series.

Series cross the public API as sequences with ``None`` (or NaN) marking
missing values; internally everything is a float ndarray with NaN.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np


def as_array(values: Sequence[float | None]) -> np.ndarray:
    """Copy a nullable sequence into a float array, None -> NaN."""
    return np.array(values, dtype=float)


def as_list(arr: np.ndarray) -> list[float | None]:
    """Inverse of as_array: NaN -> None."""
    return [None if math.isnan(v) else float(v) for v in arr]


def nonnull(arr: np.ndarray) -> np.ndarray:
    return arr[~np.isnan(arr)]
