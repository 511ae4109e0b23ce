"""Descriptive statistics, windowed features, peak detection, correlations,
and skeleton activity summaries.

Series arguments accept ``None``/NaN for missing values.  Correlations use
pairwise-complete deletion, which preserves nearly everything at this
dataset's sub-percent missingness.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._series import as_array, nonnull
from .errors import (
    DegenerateSeries,
    EmptySeries,
    NonFinite,
    NoValidPoints,
    TooFewPairs,
    UnknownPart,
)
from .model import SENTINEL, SKELETON_PARTS, Session, _column


@dataclass(frozen=True)
class SeriesSummary:
    """Eight-number summary over the non-null values of a series."""

    count: int
    mean: float
    std: float
    min: float
    q25: float
    median: float
    q75: float
    max: float

    def as_dict(self) -> dict:
        return {"count": self.count, "mean": self.mean, "std": self.std,
                "min": self.min, "25%": self.q25, "50%": self.median,
                "75%": self.q75, "max": self.max}


@dataclass(frozen=True)
class PeakSet:
    """Detected peaks with their prominences and the parameters used."""

    indices: tuple[int, ...]
    prominences: tuple[float, ...]
    min_distance_samples: int
    min_prominence: float


def describe(values: Sequence[float | None]) -> SeriesSummary:
    """Count/mean/std/quartiles of the non-null values.

    std uses the sample (n-1) convention; a single observation reports 0.
    Quantiles interpolate linearly between order statistics.

    Raises:
        EmptySeries: No non-null value.
    """
    clean = nonnull(as_array(values))
    if clean.size == 0:
        raise EmptySeries("describe needs at least one non-null value")
    q25, median, q75 = np.percentile(clean, [25.0, 50.0, 75.0])
    return SeriesSummary(
        count=int(clean.size),
        mean=float(clean.mean()),
        std=0.0 if clean.size == 1 else float(clean.std(ddof=1)),
        min=float(clean.min()),
        q25=float(q25),
        median=float(median),
        q75=float(q75),
        max=float(clean.max()),
    )


def histogram(values: Sequence[float | None], bins: int) -> list[tuple[float, float, int]]:
    """Equal-width bins over [min, max]; the last bin's right edge is inclusive.

    A zero-width range (constant series) is widened by +-0.5 around the
    value, so one bin ends up holding everything.  Counts always sum to the
    non-null count.

    Raises:
        EmptySeries: No non-null value.
        NonFinite: An infinite value.
        DegenerateSeries: The range is too narrow at its magnitude for
            ``bins`` distinct edges (values a few ulps apart).
        ValueError: bins < 1.
    """
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    clean = nonnull(as_array(values))
    if clean.size == 0:
        raise EmptySeries("histogram needs at least one non-null value")
    if not np.isfinite(clean).all():
        raise NonFinite("histogram of an infinite value")
    try:
        counts, edges = np.histogram(clean, bins=bins)
    except ValueError as exc:  # numpy: "Too many bins for data range"
        raise DegenerateSeries(f"histogram: {exc}") from None
    return [(float(edges[i]), float(edges[i + 1]), int(counts[i])) for i in range(bins)]


def rolling_stat(values: Sequence[float | None], window_samples: int,
                 kind: str = "mean") -> list[float | None]:
    """Trailing-window mean or sample variance, null until warm-up.

    output[i] covers values[i - w + 1 .. i]; the first w - 1 slots are null.
    Nulls inside a window are skipped; a window without enough non-null
    values (1 for mean, 2 for variance) yields null.
    """
    if window_samples < 1:
        raise ValueError(f"window_samples must be >= 1, got {window_samples}")
    if kind not in ("mean", "variance"):
        raise ValueError(f"kind must be 'mean' or 'variance', got {kind!r}")
    arr = as_array(values)
    out: list[float | None] = [None] * arr.size
    if arr.size < window_samples:
        return out
    windows = sliding_window_view(arr, window_samples)
    valid = (~np.isnan(windows)).sum(axis=1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        if kind == "mean":
            stats = np.nanmean(windows, axis=1)
            enough = valid >= 1
        else:
            stats = np.nanvar(windows, axis=1, ddof=1)
            enough = valid >= 2
    for offset, (value, ok) in enumerate(zip(stats, enough)):
        if ok:
            out[window_samples - 1 + offset] = float(value)
    return out


def seconds_to_samples(seconds: float, rate_hz: float) -> int:
    """Window length in samples for a duration at a sampling rate.

    Rounds to the nearest sample (10 s at 7.683258 Hz -> 77) and never
    returns less than 1.
    """
    return max(1, round(seconds * rate_hz))


def _segments(arr: np.ndarray) -> list[tuple[int, int]]:
    """Contiguous non-NaN index ranges [start, end)."""
    segments = []
    start = None
    for i, v in enumerate(arr):
        if math.isnan(v):
            if start is not None:
                segments.append((start, i))
                start = None
        elif start is None:
            start = i
    if start is not None:
        segments.append((start, arr.size))
    return segments


def _plateau_maxima(arr: np.ndarray, lo: int, hi: int) -> list[int]:
    """Leftmost indices of local maxima in arr[lo:hi] (plateau-aware)."""
    maxima = []
    i = lo + 1
    while i < hi:
        if arr[i] > arr[i - 1]:
            j = i
            while j + 1 < hi and arr[j + 1] == arr[i]:
                j += 1
            if j + 1 < hi and arr[j + 1] < arr[i]:
                maxima.append(i)
            i = j + 1
        else:
            i += 1
    return maxima


def _prominence(arr: np.ndarray, peak: int, lo: int, hi: int) -> float:
    """Topographic prominence within the segment [lo, hi).

    Walk each way until a strictly higher sample or the segment edge; the
    higher of the two interval minima is the peak's lowest contour line.
    """
    height = arr[peak]
    left_min = height
    i = peak - 1
    while i >= lo and arr[i] <= height:
        left_min = min(left_min, arr[i])
        i -= 1
    right_min = height
    i = peak + 1
    while i < hi and arr[i] <= height:
        right_min = min(right_min, arr[i])
        i += 1
    return float(height - max(left_min, right_min))


def detect_peaks(values: Sequence[float | None], min_distance_samples: int = 1,
                 min_prominence: float = 0.0) -> PeakSet:
    """Find local maxima, suppress crowded ones, then filter by prominence.

    A peak rises strictly out of its left neighbor and does not rise into
    its right one; plateaus report their leftmost sample.  When two peaks
    are closer than ``min_distance_samples`` the higher survives (greedy,
    by height).  Distance suppression runs before the prominence filter so
    that raising ``min_prominence`` can only remove peaks, never reveal
    new ones.  Nulls split the series; prominence walks stop at the splits.
    """
    if min_distance_samples < 1:
        raise ValueError(f"min_distance_samples must be >= 1, got {min_distance_samples}")
    if min_prominence < 0:
        raise ValueError(f"min_prominence must be >= 0, got {min_prominence}")
    arr = as_array(values)

    candidates: list[int] = []
    prominence_at: dict[int, float] = {}
    for lo, hi in _segments(arr):
        for peak in _plateau_maxima(arr, lo, hi):
            candidates.append(peak)
            prominence_at[peak] = _prominence(arr, peak, lo, hi)

    kept: list[int] = []
    for peak in sorted(candidates, key=lambda p: (-arr[p], p)):
        if all(abs(peak - other) >= min_distance_samples for other in kept):
            kept.append(peak)

    final = sorted(p for p in kept if prominence_at[p] >= min_prominence)
    return PeakSet(
        indices=tuple(final),
        prominences=tuple(prominence_at[p] for p in final),
        min_distance_samples=min_distance_samples,
        min_prominence=min_prominence,
    )


def _midranks(v: np.ndarray) -> np.ndarray:
    """1-based ranks with ties sharing their average rank."""
    order = np.argsort(v, kind="stable")
    sorted_v = v[order]
    boundaries = np.flatnonzero(np.r_[True, sorted_v[1:] != sorted_v[:-1], True])
    ranks_sorted = np.empty(v.size)
    for start, end in zip(boundaries[:-1], boundaries[1:]):
        ranks_sorted[start:end] = 0.5 * (start + end - 1) + 1.0
    ranks = np.empty(v.size)
    ranks[order] = ranks_sorted
    return ranks


def correlate(x: Sequence[float | None], y: Sequence[float | None],
              method: str = "pearson") -> float:
    """Pearson or Spearman coefficient over pairwise-complete pairs.

    Spearman is Pearson on average-tied (midrank) ranks.

    Raises:
        TooFewPairs: Fewer than 3 pairwise non-null pairs.
        DegenerateSeries: Zero variance in either input (after ranking,
            for Spearman).
    """
    if method not in ("pearson", "spearman"):
        raise ValueError(f"method must be 'pearson' or 'spearman', got {method!r}")
    ax, ay = as_array(x), as_array(y)
    if ax.size != ay.size:
        raise ValueError(f"length mismatch: {ax.size} vs {ay.size}")
    mask = ~np.isnan(ax) & ~np.isnan(ay)
    if int(mask.sum()) < 3:
        raise TooFewPairs(f"need >= 3 complete pairs, got {int(mask.sum())}")
    xv, yv = ax[mask], ay[mask]
    if method == "spearman":
        xv, yv = _midranks(xv), _midranks(yv)
    xd, yd = xv - xv.mean(), yv - yv.mean()
    sx, sy = float(np.dot(xd, xd)), float(np.dot(yd, yd))
    if sx == 0.0 or sy == 0.0:
        raise DegenerateSeries("zero variance: correlation undefined")
    product = sx * sy
    if product == 0.0 or math.isinf(product):
        # the product under/overflowed; split the roots at a 1-ulp cost
        denominator = math.sqrt(sx) * math.sqrt(sy)
    else:
        denominator = math.sqrt(product)
    r = float(np.dot(xd, yd)) / denominator
    return max(-1.0, min(1.0, r))


@dataclass(frozen=True)
class CorrelationMatrix:
    """Symmetric correlation matrix; degenerate cells are None."""

    names: tuple[str, ...]
    values: tuple[tuple[float | None, ...], ...]

    def as_dict(self) -> dict:
        return {"names": list(self.names), "values": [list(row) for row in self.values]}


def correlation_matrix(columns: Mapping[str, Sequence[float | None]],
                       method: str = "pearson") -> CorrelationMatrix:
    """Pairwise correlations of named series.

    The diagonal is 1 by definition; pairs that are degenerate or too
    sparse yield None cells instead of raising.
    """
    names = tuple(columns)
    if len(names) < 2:
        raise ValueError("correlation matrix needs >= 2 columns")
    cells: list[list[float | None]] = [[None] * len(names) for _ in names]
    for i, a in enumerate(names):
        cells[i][i] = 1.0
        for j in range(i + 1, len(names)):
            try:
                r = correlate(columns[a], columns[names[j]], method=method)
            except (TooFewPairs, DegenerateSeries):
                r = None
            cells[i][j] = cells[j][i] = r
    return CorrelationMatrix(names=names, values=tuple(tuple(row) for row in cells))


def windowed_correlation(x: Sequence[float | None], y: Sequence[float | None],
                         window_samples: int, step_samples: int = 1,
                         method: str = "pearson") -> list[tuple[int, float | None]]:
    """Correlation over each window [i, i + w); degenerate windows give None.

    Only full windows are evaluated; windows start every ``step_samples``.
    """
    if window_samples < 3:
        raise ValueError(f"window_samples must be >= 3, got {window_samples}")
    if step_samples < 1:
        raise ValueError(f"step_samples must be >= 1, got {step_samples}")
    ax, ay = as_array(x), as_array(y)
    if ax.size != ay.size:
        raise ValueError(f"length mismatch: {ax.size} vs {ay.size}")
    results: list[tuple[int, float | None]] = []
    for start in range(0, ax.size - window_samples + 1, step_samples):
        stop = start + window_samples
        try:
            r = correlate(ax[start:stop], ay[start:stop], method=method)
        except (TooFewPairs, DegenerateSeries):
            r = None
        results.append((start, r))
    return results


def mean_trajectory(session: Session, parts: Sequence[str],
                    ) -> tuple[list[float | None], list[float | None]]:
    """Per-record mean x and y over the listed parts, ignoring sentinels.

    A record where every listed part is missing or sentinel yields None in
    both outputs.

    Raises:
        UnknownPart: A name outside the skeleton part set.
    """
    if not parts:
        raise UnknownPart("parts list is empty")
    for part in parts:
        if part not in SKELETON_PARTS:
            raise UnknownPart(f"unknown body part: {part!r}")
    # Summed part by part from 0.0 in the order given, as sum(xs) / len(xs)
    # adds them; a reduction over the parts could round differently.
    sum_x, sum_y, count = np.zeros((3, len(session)))
    with np.errstate(over="ignore", invalid="ignore"):
        for part in parts:
            x, y = _column(session, f"{part}_x"), _column(session, f"{part}_y")
            valid = ~np.isnan(x) & ~((x == SENTINEL) & (y == SENTINEL))
            sum_x += np.where(valid, x, 0.0)
            sum_y += np.where(valid, y, 0.0)
            count += valid
        none = (count == 0).tolist()
        return ([None if skip else m for m, skip in zip((sum_x / count).tolist(), none)],
                [None if skip else m for m, skip in zip((sum_y / count).tolist(), none)])


def occupancy_grid(xs: Sequence[float | None], ys: Sequence[float | None],
                   grid_w: int, grid_h: int) -> np.ndarray:
    """Count (x, y) samples per cell over the bounding box of valid points.

    Sentinel (-1) and null coordinates are excluded.  Returns an int array
    of shape (grid_h, grid_w), row index = y cell; the total equals the
    number of valid samples.

    Raises:
        NoValidPoints: Every sample is sentinel or null.
        ValueError: Grid dimensions < 1.
    """
    if grid_w < 1 or grid_h < 1:
        raise ValueError(f"grid dimensions must be >= 1, got {grid_w}x{grid_h}")
    ax, ay = as_array(xs), as_array(ys)
    if ax.size != ay.size:
        raise ValueError(f"length mismatch: {ax.size} vs {ay.size}")
    mask = ~np.isnan(ax) & ~np.isnan(ay) & (ax != SENTINEL) & (ay != SENTINEL)
    if not mask.any():
        raise NoValidPoints("no non-sentinel (x, y) samples")
    px, py = ax[mask], ay[mask]
    counts = np.zeros((grid_h, grid_w), dtype=int)
    col = _cells(px, grid_w)
    row = _cells(py, grid_h)
    np.add.at(counts, (row, col), 1)
    return counts


def _cells(coords: np.ndarray, n: int) -> np.ndarray:
    lo, hi = float(coords.min()), float(coords.max())
    if hi == lo:
        return np.zeros(coords.size, dtype=int)
    idx = ((coords - lo) / (hi - lo) * n).astype(int)
    return np.minimum(idx, n - 1)
