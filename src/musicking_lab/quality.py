"""Data-quality pipeline: missing-value audit, sentinel scan, IQR outliers,
median imputation, and bounded gap interpolation.

Imputation policy follows the dataset's character: flow and sync_delta are
sensible to impute, skeleton sentinels are not (they are kept verbatim as a
quality signal and merely counted here).  All functions are pure.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Mapping, Sequence

import numpy as np

from ._series import as_array, finite, median, nonnull, percentile, refusing, runs
from .errors import AllMissing, TooFewValues
from .model import (
    _KEYPOINT_KEYS,
    ColumnQuality,
    QualityReport,
    Session,
    _as_list,
    _column,
    canonical_columns,
)

DEFAULT_IQR_K = 1.5
DEFAULT_CONFIDENCE_THRESHOLD = 0.5
DEFAULT_MAX_BAD = 400


@dataclass(frozen=True)
class OutlierEntry:
    """IQR result for one column: flagged indices and the fences used."""

    indices: tuple[int, ...]
    lower: float
    upper: float


@dataclass(frozen=True)
class SentinelCounts:
    """Counts of -1s, literal zeros, and low-confidence rows in one column."""

    minus_one_count: int
    zero_count: int
    low_confidence_count: int


def _iqr_mask(values, k: float) -> tuple[np.ndarray, float, float]:
    """The mask of the values strictly outside the Tukey fences, and the
    lower and upper fence; see :func:`iqr_outliers`.

    Raises:
        TooFewValues: Fewer than 4 non-null values.
        NonFinite: An infinite value, or fences that overflow double precision.
    """
    arr = as_array(values)
    clean = nonnull(arr)
    if clean.size < 4:
        raise TooFewValues(f"IQR needs >= 4 non-null values, got {clean.size}")
    finite(clean, "IQR")
    with refusing("IQR fences overflow double precision"):
        q1, q3 = percentile(clean, [25.0, 75.0])
        iqr = q3 - q1
        lower, upper = q1 - k * iqr, q3 + k * iqr
    return (arr < lower) | (arr > upper), float(lower), float(upper)


def iqr_outliers(values: Sequence[float | None], k: float = DEFAULT_IQR_K) -> OutlierEntry:
    """Flag values strictly outside the Tukey fences Q1 - k*IQR, Q3 + k*IQR.

    Quartiles use linear interpolation between order statistics.  Nulls are
    ignored and never flagged.

    Raises:
        TooFewValues: Fewer than 4 non-null values.
        NonFinite: An infinite value, or fences that overflow double precision.
    """
    mask, lower, upper = _iqr_mask(values, k)
    return OutlierEntry(indices=tuple(np.flatnonzero(mask).tolist()), lower=lower, upper=upper)


def impute_median(values: Sequence[float | None]) -> list[float | None]:
    """Replace nulls with the median of the non-null values.

    Non-null entries are returned unchanged, so the median of the output
    equals the median of the original non-null values.

    Raises:
        AllMissing: No non-null value to take a median of.
        NonFinite: An infinite value, or a median that overflows double precision.
    """
    arr = finite(as_array(values), "median imputation")
    clean = nonnull(arr)
    if clean.size == 0:
        raise AllMissing("cannot impute an all-null series")
    with refusing("median imputation overflows double precision"):
        middle = float(median(clean))
    return np.where(np.isnan(arr), middle, arr).tolist()


def interpolate_gaps(values: Sequence[float | None], max_gap: int) -> list[float | None]:
    """Linearly fill interior null runs no longer than ``max_gap``.

    Longer runs and runs touching either edge stay null: extrapolating or
    bridging long gaps would bias the series, so those stay visible.

    Raises:
        NonFinite: An infinite value, or a fill that overflows double precision.
    """
    arr = finite(as_array(values), "gap interpolation")
    out = arr.copy()
    starts, ends = runs(np.isnan(arr))
    size = ends - starts
    fill = np.isnan(arr[starts]) & (starts > 0) & (ends < arr.size) & (size <= max_gap)
    index = np.flatnonzero(np.repeat(fill, size))
    first, run = np.repeat(starts[fill], size[fill]), np.repeat(size[fill], size[fill])
    left, right = arr[first - 1], arr[first + run]
    t = (index - first + 1) / (run + 1)
    with refusing("gap interpolation overflows double precision"):
        out[index] = left + t * (right - left)
    return _as_list(out)


def sentinel_scan(session: Session,
                  confidence_threshold: float = DEFAULT_CONFIDENCE_THRESHOLD,
                  ) -> dict[str, SentinelCounts]:
    """Count -1s, zeros, and low-confidence rows for every skeleton column.

    For coordinate columns the low-confidence count is the number of rows
    whose part confidence falls below the threshold.  A confidence column
    is its own quality signal and is not re-flagged against itself, so its
    low-confidence count is reported as 0; its zeros (detector failures)
    are still counted.
    """
    if not 0.0 <= confidence_threshold <= 1.0:
        raise ValueError(f"confidence threshold {confidence_threshold} not in [0, 1]")
    scan: dict[str, SentinelCounts] = {}
    for _, _, keys in _KEYPOINT_KEYS:
        low = int((_column(session, keys[-1]) < confidence_threshold).sum())
        for key in keys:
            col = _column(session, key)
            scan[key] = SentinelCounts(
                minus_one_count=int((col == -1).sum()), zero_count=int((col == 0).sum()),
                low_confidence_count=0 if key == keys[-1] else low)
    return scan


def reliable_columns(scan: Mapping[str, SentinelCounts],
                     max_bad: int = DEFAULT_MAX_BAD) -> list[str]:
    """Columns whose -1, zero, and low-confidence counts are all below max_bad."""
    return [name for name, c in scan.items()
            if c.minus_one_count < max_bad
            and c.zero_count < max_bad
            and c.low_confidence_count < max_bad]


def integrity_report(session: Session,
                     confidence_threshold: float = DEFAULT_CONFIDENCE_THRESHOLD,
                     iqr_k: float | None = None) -> QualityReport:
    """Audit every canonical column of a session.

    Missing counts are null counts; skeleton columns additionally carry the
    sentinel-scan counters.  Pass ``iqr_k`` to also fill per-column IQR
    outlier counts (columns with fewer than 4 non-null values report 0).

    Raises:
        NonFinite: With ``iqr_k``, a column with an infinite value or overflowing fences.
    """
    scan = sentinel_scan(session, confidence_threshold)
    columns: dict[str, ColumnQuality] = {}
    for name in canonical_columns():
        values = _column(session, name)
        outliers = 0
        if iqr_k is not None:
            try:
                outliers = int(_iqr_mask(values, iqr_k)[0].sum())
            except TooFewValues:
                pass
        sentinels = scan.get(name)
        columns[name] = ColumnQuality(
            missing_count=int(np.isnan(values).sum()), outlier_count=outliers,
            **(asdict(sentinels) if sentinels is not None else {}))
    return QualityReport(session_id=session.session_id,
                         record_count=len(session), columns=columns)
