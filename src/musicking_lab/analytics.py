"""Descriptive statistics, windowed features, peak detection, correlations,
and skeleton activity summaries.

Series arguments accept ``None``/NaN for missing values.  Correlations use
pairwise-complete deletion, which preserves nearly everything at this
dataset's sub-percent missingness.  A null compares false with every value,
so nulls split a series: no peak sits next to one, and no prominence walk
crosses one.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._series import as_array, nonnull, percentile, refusing, runs
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
        NonFinite: An infinite value, or an overflow (even the sum of ``[1.7e308] * 3``).
    """
    clean = nonnull(as_array(values))
    if clean.size == 0:
        raise EmptySeries("describe needs at least one non-null value")
    if not np.isfinite(clean).all():
        raise NonFinite("describe of an infinite value")
    with refusing("describe overflows double precision"):
        q25, median, q75 = percentile(clean, [25.0, 50.0, 75.0])
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
        NonFinite: An infinite value, or a range that overflows double precision.
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
        with refusing("histogram range overflows double precision"):
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
    if arr.size < window_samples:
        return [None] * arr.size
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
    return [None] * (window_samples - 1) + np.where(enough, stats, None).tolist()


def seconds_to_samples(seconds: float, rate_hz: float) -> int:
    """Window length in samples for a duration at a sampling rate.

    Rounds to the nearest sample (10 s at 7.683258 Hz -> 77) and never
    returns less than 1.

    Raises:
        NonFinite: The product of seconds and rate is not finite.
    """
    samples = seconds * rate_hz
    if not np.isfinite(samples):
        raise NonFinite(f"{seconds!r} s at {rate_hz!r} Hz is not a finite sample count")
    return max(1, round(samples))


def _prominence(arr: list[float], peak: int) -> float:
    """Topographic prominence of a peak.

    Walk each way until a strictly higher sample, a null or the edge; the
    higher of the two interval minima is the peak's lowest contour line.
    """
    height = arr[peak]
    left_min = height
    i = peak - 1
    while i >= 0 and arr[i] <= height:
        left_min = min(left_min, arr[i])
        i -= 1
    right_min = height
    i = peak + 1
    while i < len(arr) and arr[i] <= height:
        right_min = min(right_min, arr[i])
        i += 1
    base = max(left_min, right_min)
    if height - base == np.inf and np.isfinite(height) and np.isfinite(base):
        raise NonFinite("peak prominence overflows double precision")
    return height - base


def detect_peaks(values: Sequence[float | None], min_distance_samples: int = 1,
                 min_prominence: float = 0.0) -> PeakSet:
    """Find local maxima, suppress crowded ones, then filter by prominence.

    A peak is the first sample of a run of equal values whose neighboring
    runs are both lower: a plateau reports its leftmost sample, and a run at
    an edge is no peak.  When two peaks are closer than
    ``min_distance_samples`` the higher survives (greedy, by height, ties to
    the earlier).  Distance suppression runs before the prominence filter so
    that raising ``min_prominence`` can only remove peaks, never reveal new ones.

    Raises:
        NonFinite: A finite peak's prominence overflows double precision.
    """
    if min_distance_samples < 1:
        raise ValueError(f"min_distance_samples must be >= 1, got {min_distance_samples}")
    if min_prominence < 0:
        raise ValueError(f"min_prominence must be >= 0, got {min_prominence}")
    arr = as_array(values)
    starts, _ = runs(arr)
    level = arr[starts]
    candidates = starts[1:-1][(level[1:-1] > level[:-2]) & (level[1:-1] > level[2:])]

    near_kept = np.zeros(arr.size, dtype=bool)
    kept: list[int] = []
    for peak in candidates[np.argsort(-arr[candidates], kind="stable")].tolist():
        if not near_kept[peak]:
            kept.append(peak)
            near_kept[max(0, peak - min_distance_samples + 1):peak + min_distance_samples] = True

    series = arr.tolist()
    prominences = {p: _prominence(series, p) for p in sorted(kept)}
    final = {p: q for p, q in prominences.items() if q >= min_prominence}
    return PeakSet(
        indices=tuple(final),
        prominences=tuple(final.values()),
        min_distance_samples=min_distance_samples,
        min_prominence=min_prominence,
    )


def _midranks(v: np.ndarray) -> np.ndarray:
    """1-based ranks within each row of a (k, m) array; ties share their average rank."""
    order = np.argsort(v, axis=1, kind="stable")
    width = v.shape[1] + 1  # a NaN after each sorted row ends its last run
    starts, ends = runs(np.c_[np.take_along_axis(v, order, axis=1), np.full(len(v), np.nan)].ravel())
    row = starts // width * width
    ranks = np.repeat(0.5 * (starts + ends - 1 - 2 * row) + 1.0, ends - starts).reshape(-1, width)
    out = np.empty(v.shape)
    np.put_along_axis(out, order, ranks[:, :-1], axis=1)
    return out


def _pearson_rows(xv: np.ndarray, yv: np.ndarray) -> np.ndarray:
    """Pearson r of each row pair of two C-contiguous (k, m) arrays.

    NaN where r is undefined: zero variance or a non-finite value.  Each
    row's deviations are scaled by the power of two that brings the largest
    into [0.5, 1), which is exact, so the sums can neither overflow nor
    underflow; stacked vector-vector matmuls round as ``np.dot`` does.
    """
    with np.errstate(all="ignore"):
        xd, yd = (v - v.mean(axis=1, keepdims=True) for v in (xv, yv))
        xd, yd = (np.ldexp(d, -np.frexp(abs(d).max(axis=1, keepdims=True))[1]) for d in (xd, yd))
        sx, sy, sxy = ((a[:, None, :] @ b[:, :, None])[:, 0, 0]
                       for a, b in ((xd, xd), (yd, yd), (xd, yd)))
        return np.clip(sxy / np.sqrt(sx * sy), -1.0, 1.0)


def _pairwise(xw: np.ndarray, yw: np.ndarray, method: str) -> tuple[np.ndarray, np.ndarray]:
    """Each row pair's r over its complete pairs, and their count.

    r is NaN for fewer than 3 complete pairs, zero variance (after ranking,
    for Spearman) or a non-finite value.  Rows with equal counts form one
    batch, which ranks and reduces each row on its own."""
    complete = ~np.isnan(xw) & ~np.isnan(yw)
    pairs = complete.sum(axis=1)
    r = np.full(pairs.size, np.nan)
    for m in np.flatnonzero(np.bincount(pairs)[3:]) + 3:
        rows = pairs == m
        xv, yv = (w[rows][complete[rows]].reshape(-1, m) for w in (xw, yw))
        if method == "spearman":
            xv, yv = _midranks(xv), _midranks(yv)
        r[rows] = _pearson_rows(xv, yv)
    return r, pairs


def _stack(method: str, *series: Sequence[float | None]) -> np.ndarray:
    """The series as the rows of one float array, once method and lengths check out."""
    if method not in ("pearson", "spearman"):
        raise ValueError(f"method must be 'pearson' or 'spearman', got {method!r}")
    arrays = [as_array(values) for values in series]
    for other in arrays[1:]:
        if other.size != arrays[0].size:
            raise ValueError(f"length mismatch: {arrays[0].size} vs {other.size}")
    return np.array(arrays)


def correlate(x: Sequence[float | None], y: Sequence[float | None],
              method: str = "pearson") -> float:
    """Pearson or Spearman coefficient over pairwise-complete pairs.

    Spearman is Pearson on average-tied (midrank) ranks.

    Raises:
        TooFewPairs: Fewer than 3 pairwise non-null pairs.
        DegenerateSeries: Zero variance in either input (after ranking,
            for Spearman), or a non-finite value.
    """
    xy = _stack(method, x, y)
    r, pairs = _pairwise(xy[:1], xy[1:], method)
    if pairs[0] < 3:
        raise TooFewPairs(f"need >= 3 complete pairs, got {int(pairs[0])}")
    if np.isnan(r[0]):
        raise DegenerateSeries("zero variance or a non-finite value: correlation undefined")
    return float(r[0])


@dataclass(frozen=True)
class CorrelationMatrix:
    """Symmetric correlation matrix; degenerate cells are None."""

    names: tuple[str, ...]
    values: tuple[tuple[float | None, ...], ...]

    def as_dict(self) -> dict:
        return {"names": list(self.names), "values": [list(row) for row in self.values]}


def correlation_matrix(columns: Mapping[str, Sequence[float | None]],
                       method: str = "pearson") -> CorrelationMatrix:
    """Pairwise correlations of named series, each as ``correlate`` gives it
    or None where it raises; the diagonal is 1 by definition."""
    names = tuple(columns)
    if len(names) < 2:
        raise ValueError("correlation matrix needs >= 2 columns")
    stacked = _stack(method, *columns.values())
    i, j = np.triu_indices(len(names), 1)
    cells = np.eye(len(names))
    cells[i, j] = cells[j, i] = _pairwise(stacked[i], stacked[j], method)[0]
    return CorrelationMatrix(names=names, values=tuple(
        tuple(None if v != v else v for v in row) for row in cells.tolist()))


def windowed_correlation(x: Sequence[float | None], y: Sequence[float | None],
                         window_samples: int, step_samples: int = 1,
                         method: str = "pearson") -> list[tuple[int, float | None]]:
    """Correlation over each window [i, i + w), as ``correlate`` gives it.

    Only full windows are evaluated; windows start every ``step_samples``.
    A window of fewer than 3 complete pairs, zero variance or a non-finite
    value gives None.
    """
    if window_samples < 3:
        raise ValueError(f"window_samples must be >= 3, got {window_samples}")
    if step_samples < 1:
        raise ValueError(f"step_samples must be >= 1, got {step_samples}")
    ax, ay = _stack(method, x, y)
    if ax.size < window_samples:
        return []
    r, _ = _pairwise(*(sliding_window_view(a, window_samples)[::step_samples]
                       for a in (ax, ay)), method)
    return [(k * step_samples, None if v != v else v) for k, v in enumerate(r.tolist())]


def mean_trajectory(session: Session, parts: Sequence[str],
                    ) -> tuple[list[float | None], list[float | None]]:
    """Per-record mean x and y over the listed parts, ignoring sentinels.

    A record where every listed part is missing or sentinel yields None in
    both outputs.

    Raises:
        UnknownPart: A name outside the skeleton part set.
        NonFinite: A record's sum of coordinates overflows double precision.
    """
    if not parts:
        raise UnknownPart("parts list is empty")
    for part in parts:
        if part not in SKELETON_PARTS:
            raise UnknownPart(f"unknown body part: {part!r}")
    # Summed part by part from 0.0 in the order given, as sum(xs) / len(xs)
    # adds them; a reduction over the parts could round differently.
    sum_x, sum_y, count = np.zeros((3, len(session)))
    with refusing("mean trajectory overflows double precision"):
        for part in parts:
            x, y = _column(session, f"{part}_x"), _column(session, f"{part}_y")
            valid = ~np.isnan(x) & ~((x == SENTINEL) & (y == SENTINEL))
            sum_x += np.where(valid, x, 0.0)
            sum_y += np.where(valid, y, 0.0)
            count += valid
        none, count = (count == 0).tolist(), np.maximum(count, 1)  # so no 0 / 0
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
        NonFinite: An infinite coordinate among the valid samples.
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
    if not (np.isfinite(px).all() and np.isfinite(py).all()):
        raise NonFinite("occupancy grid of an infinite coordinate")
    counts = np.zeros((grid_h, grid_w), dtype=int)
    col = _cells(px, grid_w)
    row = _cells(py, grid_h)
    np.add.at(counts, (row, col), 1)
    return counts


def _cells(coords: np.ndarray, n: int) -> np.ndarray:
    # Binned by halves, so no difference overflows however wide the range.
    # Halving a normal double is exact, so each quotient keeps its bits; a
    # range of one subnormal step halves to nothing and bins as one cell.
    half = coords / 2
    lo, hi = float(half.min()), float(half.max())
    if hi == lo:
        return np.zeros(coords.size, dtype=int)
    idx = ((half - lo) / (hi - lo) * n).astype(int)
    return np.minimum(idx, n - 1)
