"""Sampling-rate inference, delta diagnostics, chorus segmentation, and
alignment of records onto the musical beat/bar grid.

backing_track_position is authoritative for timing; sync_delta is kept for
diagnostics only, since the position series is free of outliers.  Bar
intervals are half-open [bar_start, next_bar_start) and the final bar
extends to the track duration.

A session is aligned in one array pass (a binary search of every position
over the beat times).  Per-bar statistics stay numpy reductions over each
bar's values in record order: a fused group-by sum (``np.add.reduceat``,
weighted ``np.bincount``) would change the last bits of the results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import analytics
from ._series import finite, median, refusing, runs
from .errors import InvariantError, MissingChorusIds, OutOfTrack, TooFewBeats, TooFewRecords
from .model import BeatGrid, Session, _as_list, _column, _in_performance, column_values
from .quality import OutlierEntry, iqr_outliers

PER_BAR_STATS = ("mean", "sum", "std", "min", "max")


@dataclass(frozen=True)
class SamplingProfile:
    """Recording cadence inferred from backing-track position diffs."""

    mean_interval_ms: float
    median_interval_ms: float
    rate_hz: float
    nyquist_hz: float


@dataclass(frozen=True)
class DeltaProfile:
    """Distribution and IQR outliers of the reported sync_delta series."""

    histogram: tuple[tuple[float, float, int], ...]
    outliers: OutlierEntry


@dataclass(frozen=True)
class ChorusSegment:
    """Maximal run of records sharing one chorus id (indices inclusive); it
    is in the performance unless the id is 0 or 999."""

    chorus_id: int
    start_index: int
    end_index: int
    start_ms: float
    end_ms: float
    performance: bool

    def __len__(self) -> int:
        return self.end_index - self.start_index + 1


@dataclass(frozen=True)
class MusicalPosition:
    """Where a track timestamp falls on the grid: bar, beat, and offset."""

    bar_index: int
    beat_index_global: int
    beat_in_bar: int
    offset_s: float


def infer_sampling_rate(session: Session) -> SamplingProfile:
    """Derive the effective sampling rate from position diffs.

    rate_hz = 1000 / mean interval (ms); nyquist_hz is exactly half of it.

    Raises:
        TooFewRecords: Fewer than 2 records, so no interval exists.
        NonFinite: An interval, or their sum, overflows double precision
            (a finite clock can span more than the largest double), or the
            mean interval is so small (a few subnormal steps) that the rate
            overflows.
        InvariantError: The mean interval is not above 0 ms.
    """
    if len(session) < 2:
        raise TooFewRecords("sampling rate needs >= 2 records")
    with refusing("position intervals overflow double precision"):
        intervals = np.diff(_column(session, "backing_track_position"))
        mean_ms = float(intervals.mean())
    if not mean_ms > 0:
        raise InvariantError(f"mean position interval must be > 0 ms, got {mean_ms!r}")
    with refusing(f"sampling rate overflows double precision (mean interval {mean_ms!r} ms)"):
        rate = float(np.float64(1000.0) / mean_ms)  # numpy scalars raise; floats would not
    return SamplingProfile(
        mean_interval_ms=mean_ms,
        median_interval_ms=float(median(intervals)),
        rate_hz=rate,
        nyquist_hz=rate / 2.0,
    )


def delta_profile(session: Session, bins: int = 20,
                  iqr_k: float = 1.5) -> DeltaProfile:
    """Histogram plus IQR outliers of sync_delta (diagnostic only).

    Raises:
        TooFewRecords: Fewer than 2 records.
        TooFewValues: Fewer than 4 non-null deltas (propagated from the
            IQR step).
        NonFinite: An infinite delta, or an overflowing range or IQR fence
            (propagated from the histogram and IQR steps).
    """
    if len(session) < 2:
        raise TooFewRecords("delta profile needs >= 2 records")
    deltas = _column(session, "sync_delta")
    return DeltaProfile(
        histogram=tuple(analytics.histogram(deltas, bins)),
        outliers=iqr_outliers(deltas, k=iqr_k),
    )


def segment_choruses(session: Session) -> list[ChorusSegment]:
    """Split the session into maximal constant-chorus runs, in order.

    Every id but 0 and 999, the pre and post tails, is flagged as a
    performance segment, as ``aggregate_per_bar`` and ``compare`` count
    its records.

    Raises:
        MissingChorusIds: Some record has no chorus id; impute first.
    """
    chorus = _column(session, "chorus_id")
    if np.isnan(chorus).any():
        raise MissingChorusIds("chorus_id missing on some records")
    starts, ends = runs(chorus)
    ids = _as_list(chorus[starts], integer=True)
    inside = _in_performance(chorus).tolist()
    positions = _column(session, "backing_track_position").tolist()
    return [ChorusSegment(chorus_id=chorus_id, start_index=start, end_index=end - 1,
                          start_ms=positions[start], end_ms=positions[end - 1],
                          performance=inside[start])
            for chorus_id, start, end in zip(ids, starts.tolist(), ends.tolist())]


def estimate_tempo(grid: BeatGrid) -> float:
    """Tempo in BPM from the median inter-beat interval.

    Median, not mean: the grid contains a handful of shortened beats that
    would bias a mean estimate noticeably.

    Raises:
        TooFewBeats: Fewer than 2 beats.
    """
    if len(grid.beat_times) < 2:
        raise TooFewBeats("tempo needs >= 2 beats")
    intervals = np.diff(np.asarray(grid.beat_times))
    return 60.0 / float(median(intervals))


def _align(positions_ms, grid: BeatGrid,
           offset_ms: float = 0.0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Offset-adjusted times, governing beats and on-track mask, in one pass.

    The governing beat is the last beat at or before t (in ms), or beat 0
    before the first beat.
    """
    t_ms = np.asarray(positions_ms, dtype=float) + offset_ms
    beats_ms = np.asarray(grid.beat_times) * 1000.0
    beat = np.maximum(np.searchsorted(beats_ms, t_ms, side="right") - 1, 0)
    on_track = (t_ms >= 0.0) & (t_ms <= grid.duration_s * 1000.0)
    return t_ms, beat, on_track


def assign_musical_position(t_ms: float, grid: BeatGrid) -> MusicalPosition:
    """Locate a track timestamp on the beat/bar grid.

    The governing beat is the last beat at or before t; timestamps before
    the first beat map to beat 0 with a negative offset.  Bars are derived
    from the enforced every-4th-beat layout.  The comparison runs in
    milliseconds so a timestamp sitting exactly on a beat reports an offset
    of exactly zero.

    Raises:
        OutOfTrack: t outside [0, duration].
    """
    if t_ms < 0.0 or t_ms > grid.duration_s * 1000.0:
        raise OutOfTrack(f"t = {t_ms / 1000.0:.3f}s outside [0, {grid.duration_s}]")
    beat = int(_align([t_ms], grid)[1][0])
    return MusicalPosition(
        bar_index=beat // 4,
        beat_index_global=beat,
        beat_in_bar=beat % 4,
        offset_s=(t_ms - grid.beat_times[beat] * 1000.0) / 1000.0,
    )


def _bar_groups(session: Session, grid: BeatGrid, values: np.ndarray,
                include_nonperformance: bool, offset_ms: float) -> list[np.ndarray]:
    """Split a value array (NaN = null) into one array per bar.

    Off-track records, nulls and, unless ``include_nonperformance``,
    chorus 0/999 records are dropped; each bar keeps its values in record
    order, whatever the order of the positions.
    """
    _, beat, keep = _align(_column(session, "backing_track_position"), grid, offset_ms)
    keep &= ~np.isnan(values)
    if not include_nonperformance:
        keep &= _in_performance(_column(session, "chorus_id"))
    bars = beat[keep] // 4
    order = np.argsort(bars, kind="stable")
    bounds = np.cumsum(np.bincount(bars, minlength=grid.n_bars))[:-1]
    return np.split(values[keep][order], bounds)


def aggregate_per_bar(session: Session, grid: BeatGrid, column: str,
                      stat: str = "mean", include_nonperformance: bool = False,
                      offset_ms: float = 0.0) -> list[float | None]:
    """One statistic of a column per bar; bars with no records yield None.

    Records with chorus_id 0 or 999 sit outside the musical performance and
    are excluded unless ``include_nonperformance`` is set.  Records whose
    (offset-adjusted) position falls outside the track are skipped.
    ``offset_ms`` is added to positions before alignment, for datasets
    whose position origin is not audio time zero.

    Raises:
        UnknownColumn: Column name does not resolve.
        ValueError: Unsupported statistic.
        NonFinite: An infinite value, or a bar's statistic that overflows.
    """
    if stat not in PER_BAR_STATS:
        raise ValueError(f"stat must be one of {PER_BAR_STATS}, got {stat!r}")
    values = finite(_column(session, column), f"per-bar {stat} of {column}")
    groups = _bar_groups(session, grid, values, include_nonperformance, offset_ms)
    with refusing(f"per-bar {stat} of {column} overflows double precision"):
        return [_bar_stat(bucket, stat) for bucket in groups]


def _bar_stat(bucket: np.ndarray, stat: str) -> float | None:
    if not bucket.size:
        return None
    if stat == "std":
        # sample std; a single observation has no spread to report
        return 0.0 if bucket.size == 1 else float(bucket.std(ddof=1))
    return float(getattr(bucket, stat)())


def per_bar_chorus(session: Session, grid: BeatGrid,
                   include_nonperformance: bool = False,
                   offset_ms: float = 0.0) -> list[int | None]:
    """Modal chorus id per bar (ties break to the smaller id).

    Bars without any eligible record yield None.  Used to join per-bar
    cluster assignments back onto the chorus structure.
    """
    ids = _column(session, "chorus_id")
    out: list[int | None] = []
    for bucket in _bar_groups(session, grid, ids, include_nonperformance, offset_ms):
        unique, counts = np.unique(bucket, return_counts=True)
        out.append(int(unique[counts.argmax()]) if bucket.size else None)
    return out


@dataclass(frozen=True)
class AlignedRecord:
    """One row of the alignment table (bar fields None when off-grid)."""

    record_index: int
    t_ms: float
    chorus_id: int | None
    bar_index: int | None
    beat_in_bar: int | None


def align_session(session: Session, grid: BeatGrid,
                  offset_ms: float = 0.0) -> list[AlignedRecord]:
    """Tabulate every record's grid position for export."""
    t_ms, beat, on_track = _align(_column(session, "backing_track_position"), grid, offset_ms)
    return [AlignedRecord(i, t, chorus, b // 4 if on else None, b % 4 if on else None)
            for i, (t, chorus, b, on) in enumerate(zip(t_ms.tolist(),
                                                       column_values(session, "chorus_id"),
                                                       beat.tolist(), on_track.tolist()))]
