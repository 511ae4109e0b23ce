"""Data-quality pipeline: missing-value audit, sentinel scan, IQR outliers,
median imputation, and bounded gap interpolation.

Imputation policy follows the dataset's character: flow and sync_delta are
sensible to impute, skeleton sentinels are not (they are kept verbatim as a
quality signal and merely counted here).  All functions are pure and
parallelizable per column.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Mapping, Sequence

import numpy as np

from ._series import as_array, as_list, nonnull
from .errors import AllMissing, TooFewValues
from .model import (
    SKELETON_AXES,
    SKELETON_PARTS,
    ColumnQuality,
    QualityReport,
    Session,
    _column,
    canonical_columns,
    column_values,
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
class OutlierReport:
    """Per-column IQR outlier entries for one session."""

    columns: dict[str, OutlierEntry]

    def as_dict(self) -> dict:
        return {name: {"indices": list(e.indices), "lower": e.lower, "upper": e.upper}
                for name, e in self.columns.items()}


@dataclass(frozen=True)
class SentinelCounts:
    """Counts of -1s, literal zeros, and low-confidence rows in one column."""

    minus_one_count: int
    zero_count: int
    low_confidence_count: int


def iqr_outliers(values: Sequence[float | None], k: float = DEFAULT_IQR_K) -> OutlierEntry:
    """Flag values strictly outside the Tukey fences Q1 - k*IQR, Q3 + k*IQR.

    Quartiles use linear interpolation between order statistics.  Nulls are
    ignored and never flagged.

    Raises:
        TooFewValues: Fewer than 4 non-null values.
    """
    arr = as_array(values)
    clean = nonnull(arr)
    if clean.size < 4:
        raise TooFewValues(f"IQR needs >= 4 non-null values, got {clean.size}")
    q1, q3 = np.percentile(clean, [25.0, 75.0])
    iqr = q3 - q1
    lower, upper = q1 - k * iqr, q3 + k * iqr
    with np.errstate(invalid="ignore"):
        mask = (arr < lower) | (arr > upper)
    return OutlierEntry(indices=tuple(int(i) for i in np.flatnonzero(mask)),
                        lower=float(lower), upper=float(upper))


def outlier_report(session: Session, k: float = DEFAULT_IQR_K) -> OutlierReport:
    """IQR outlier entries for every canonical column of a session.

    Columns with fewer than 4 non-null values are omitted rather than
    failing the whole report.
    """
    columns: dict[str, OutlierEntry] = {}
    for name in canonical_columns():
        try:
            columns[name] = iqr_outliers(column_values(session, name), k=k)
        except TooFewValues:
            continue
    return OutlierReport(columns=columns)


def impute_median(values: Sequence[float | None]) -> list[float | None]:
    """Replace nulls with the median of the non-null values.

    Non-null entries are returned unchanged, so the median of the output
    equals the median of the original non-null values.

    Raises:
        AllMissing: No non-null value to take a median of.
    """
    arr = as_array(values)
    clean = nonnull(arr)
    if clean.size == 0:
        raise AllMissing("cannot impute an all-null series")
    median = float(np.median(clean))
    return [median if np.isnan(x) else float(x) for x in arr]


def interpolate_gaps(values: Sequence[float | None], max_gap: int) -> list[float | None]:
    """Linearly fill interior null runs no longer than ``max_gap``.

    Longer runs and runs touching either edge stay null: extrapolating or
    bridging long gaps would bias the series, so those stay visible.
    """
    arr = as_array(values)
    out = arr.copy()
    n = arr.size
    i = 0
    while i < n:
        if not np.isnan(arr[i]):
            i += 1
            continue
        j = i
        while j < n and np.isnan(arr[j]):
            j += 1
        run = j - i
        interior = i > 0 and j < n
        if interior and run <= max_gap:
            left, right = arr[i - 1], arr[j]
            for offset in range(run):
                t = (offset + 1) / (run + 1)
                out[i + offset] = left + t * (right - left)
        i = j
    return as_list(out)


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
    for part in SKELETON_PARTS:
        confidences = _column(session, f"{part}_confidence")
        low = int((confidences < confidence_threshold).sum())
        for axis in SKELETON_AXES:
            own = axis == "confidence"
            col = confidences if own else _column(session, f"{part}_{axis}")
            scan[f"hardware_skeleton_{part}_{axis}"] = SentinelCounts(
                minus_one_count=int((col == -1).sum()), zero_count=int((col == 0).sum()),
                low_confidence_count=0 if own else low)
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
    """
    scan = sentinel_scan(session, confidence_threshold)
    columns: dict[str, ColumnQuality] = {}
    for name in canonical_columns():
        values = _column(session, name)
        outliers = 0
        if iqr_k is not None:
            try:
                outliers = len(iqr_outliers(values, k=iqr_k).indices)
            except TooFewValues:
                pass
        sentinels = scan.get(name)
        columns[name] = ColumnQuality(
            missing_count=int(np.isnan(values).sum()), outlier_count=outliers,
            **(asdict(sentinels) if sentinels is not None else {}))
    return QualityReport(session_id=session.session_id,
                         record_count=len(session), columns=columns)
