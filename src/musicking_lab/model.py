"""Domain types for multimodal performance sessions and their invariants.

A session is an ordered list of records sampled while a musician improvises
over a shared backing track.  Each record carries synchronization fields
(backing-track position in milliseconds, inter-record delta, chorus id),
physiological channels (skin conductance, four EEG electrodes), a
self-reported flow score, and a 2-D skeleton with a per-part detector
confidence.  All types are frozen value objects.

Validation is data, not control flow: ``validate_record`` and
``validate_session`` return lists of human-readable violation strings and
never raise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import InvariantError, UnknownColumn

# Skeleton part set tracked by the capture rig (upper body, 2-D).
SKELETON_PARTS: tuple[str, ...] = (
    "nose",
    "neck",
    "r_shoulder",
    "r_elbow",
    "r_wrist",
    "l_shoulder",
    "l_elbow",
    "l_wrist",
    "r_eye",
    "l_eye",
    "r_ear",
    "l_ear",
)

SKELETON_AXES: tuple[str, ...] = ("x", "y", "confidence")

EEG_CHANNELS: tuple[str, ...] = ("t3", "t4", "o1", "o2")

# Valid chorus labels: 0 = pre-performance, 1..5 = playthroughs,
# 999 = post-performance tail.
CHORUS_IDS: frozenset[int] = frozenset({0, 1, 2, 3, 4, 5, 999})
PERFORMANCE_CHORUS_IDS: frozenset[int] = frozenset({1, 2, 3, 4, 5})

# Coordinate sentinel used by the pose detector when a part is not found.
SENTINEL = -1.0


@dataclass(frozen=True)
class Keypoint:
    """One detected body part: pixel coordinates plus detector confidence.

    A failed detection is encoded as x = y = -1 with confidence 0; the
    sentinel must appear in both axes or neither.
    """

    x: float
    y: float
    confidence: float

    def is_sentinel(self) -> bool:
        return self.x == SENTINEL and self.y == SENTINEL


@dataclass(frozen=True)
class Record:
    """One synchronized multimodal sample.

    ``backing_track_position`` (ms from track start) is the master clock and
    the only required field.  Nullable fields use ``None``, never numeric
    sentinels; the skeleton keeps its -1/0 sentinels verbatim because they
    carry quality signal.  Unknown source columns are preserved in
    ``extras``.
    """

    backing_track_position: float
    sync_delta: float | None = None
    chorus_id: int | None = None
    flow: int | None = None
    eda: int | None = None
    eeg_t3: int | None = None
    eeg_t4: int | None = None
    eeg_o1: int | None = None
    eeg_o2: int | None = None
    keypoints: Mapping[str, Keypoint] = field(default_factory=dict)
    extras: Mapping[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class Session:
    """Ordered records for one musician, keyed by an opaque session id."""

    session_id: str
    records: tuple[Record, ...]

    def __len__(self) -> int:
        return len(self.records)


@dataclass(frozen=True)
class BeatGrid:
    """Beat and bar onsets of the shared backing track, in seconds.

    Bars begin on beats and, in this dataset's 4/4 meter, fall on every
    4th beat starting from the first.  Construction enforces that shape so
    downstream alignment can trust any grid instance.
    """

    beat_times: tuple[float, ...]
    bar_times: tuple[float, ...]
    tempo_bpm: float
    duration_s: float
    audio_sample_rate_hz: int

    def __post_init__(self):
        for name, times in (("beat_times", self.beat_times), ("bar_times", self.bar_times)):
            for a, b in zip(times, times[1:]):
                if not b > a:
                    raise InvariantError(f"{name} not strictly increasing at {b}")
        expected_bars = self.beat_times[0::4]
        if self.bar_times != expected_bars:
            extra = set(self.bar_times) - set(self.beat_times)
            if extra:
                raise InvariantError(f"bar time not in beats: {sorted(extra)[0]}")
            raise InvariantError("bar times are not every 4th beat time")

    @property
    def n_bars(self) -> int:
        return len(self.bar_times)


@dataclass(frozen=True)
class ColumnQuality:
    """Audit counters for one column.

    The sentinel counters are only meaningful for skeleton columns and stay
    ``None`` elsewhere.
    """

    missing_count: int = 0
    outlier_count: int = 0
    minus_one_count: int | None = None
    zero_count: int | None = None
    low_confidence_count: int | None = None


@dataclass(frozen=True)
class QualityReport:
    """Per-column missing/outlier/sentinel audit for one session."""

    session_id: str
    record_count: int
    columns: dict[str, ColumnQuality]

    def __post_init__(self):
        for name, cq in self.columns.items():
            for counter in (cq.missing_count, cq.outlier_count, cq.minus_one_count,
                            cq.zero_count, cq.low_confidence_count):
                if counter is not None and not 0 <= counter <= self.record_count:
                    raise InvariantError(f"{name}: count {counter} outside [0, {self.record_count}]")

    def missing_pct(self, column: str) -> float:
        if self.record_count == 0:
            return 0.0
        return 100.0 * self.columns[column].missing_count / self.record_count

    def as_dict(self) -> dict:
        cols = {}
        for name, cq in self.columns.items():
            entry = {"missing_count": cq.missing_count, "outlier_count": cq.outlier_count,
                     "missing_pct": round(self.missing_pct(name), 6)}
            if cq.minus_one_count is not None:
                entry["minus_one_count"] = cq.minus_one_count
                entry["zero_count"] = cq.zero_count
                entry["low_confidence_count"] = cq.low_confidence_count
            cols[name] = entry
        return {"session_id": self.session_id, "record_count": self.record_count,
                "columns": cols}


@dataclass(frozen=True, eq=False)
class BarFeatureMatrix:
    """Per-bar feature vectors: one row per bar admitted to clustering.

    ``dropped`` lists bar indices that had no records and therefore no row.
    """

    bar_index: tuple[int, ...]
    feature_names: tuple[str, ...]
    rows: np.ndarray
    dropped: tuple[int, ...] = ()

    def __post_init__(self):
        if self.rows.shape != (len(self.bar_index), len(self.feature_names)):
            raise InvariantError(
                f"rows shape {self.rows.shape} does not match "
                f"{len(self.bar_index)} bars x {len(self.feature_names)} features")


# -- column naming ---------------------------------------------------------
#
# Canonical on-disk column names follow the source dataset's snake_case
# style; short aliases make library call sites readable.  Both resolve.

_SCALAR_COLUMNS: dict[str, str] = {
    "sync_delta": "sync_delta",
    "sync_chorus_id": "chorus_id",
    "chorus_id": "chorus_id",
    "backing_track_position": "backing_track_position",
    "flow": "flow",
    "hardware_bitalino_eda": "eda",
    "eda": "eda",
}
for _ch in EEG_CHANNELS:
    _SCALAR_COLUMNS[f"hardware_brainbit_eeg_{_ch}"] = f"eeg_{_ch}"
    _SCALAR_COLUMNS[f"eeg_{_ch}"] = f"eeg_{_ch}"

_SKELETON_COLUMNS: dict[str, tuple[str, str]] = {}
for _part in SKELETON_PARTS:
    for _axis in SKELETON_AXES:
        _SKELETON_COLUMNS[f"hardware_skeleton_{_part}_{_axis}"] = (_part, _axis)
        _SKELETON_COLUMNS[f"{_part}_{_axis}"] = (_part, _axis)


def canonical_columns() -> tuple[str, ...]:
    """All canonical column names in report order."""
    names = ["sync_delta", "sync_chorus_id", "backing_track_position", "flow",
             "hardware_bitalino_eda"]
    names += [f"hardware_brainbit_eeg_{ch}" for ch in EEG_CHANNELS]
    for part in SKELETON_PARTS:
        names += [f"hardware_skeleton_{part}_{axis}" for axis in SKELETON_AXES]
    return tuple(names)


def skeleton_columns() -> tuple[str, ...]:
    """Canonical skeleton column names (x, y, confidence per part)."""
    return tuple(f"hardware_skeleton_{part}_{axis}"
                 for part in SKELETON_PARTS for axis in SKELETON_AXES)


def _keypoint_value(record: Record, part: str, axis: str) -> float | None:
    kp = record.keypoints.get(part)
    if kp is None:
        return None
    return getattr(kp, axis)


def column_values(session: Session, name: str) -> list[float | None]:
    """Extract one column as a list of numbers with ``None`` for missing.

    Accepts canonical names (``hardware_bitalino_eda``) or short aliases
    (``eda``, ``l_wrist_x``).  Unknown names fall back to per-record
    ``extras``; non-numeric extras become ``None``.

    Raises:
        UnknownColumn: If the name is neither canonical nor present in any
            record's extras.
    """
    attr = _SCALAR_COLUMNS.get(name)
    if attr is not None:
        return [getattr(r, attr) for r in session.records]
    part_axis = _SKELETON_COLUMNS.get(name)
    if part_axis is not None:
        part, axis = part_axis
        return [_keypoint_value(r, part, axis) for r in session.records]
    if any(name in r.extras for r in session.records):
        return [v if isinstance(v, (int, float)) and not isinstance(v, bool) else None
                for v in (r.extras.get(name) for r in session.records)]
    raise UnknownColumn(f"unknown column: {name!r}")


# -- validation ------------------------------------------------------------

def _check_number(violations: list[str], label: str, value, *, integer=False,
                  minimum=None) -> None:
    if value is None:
        return
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        violations.append(f"{label} not numeric")
        return
    if integer and not float(value).is_integer():
        violations.append(f"{label} not an integer")
    if minimum is not None and value < minimum:
        violations.append(f"{label} below {minimum}")


def validate_record(record: Record) -> list[str]:
    """Check every Record invariant; return one description per violation.

    An empty list means the record is valid.  Null fields never violate
    anything: missingness is audited separately.
    """
    violations: list[str] = []
    if record.chorus_id is not None and record.chorus_id not in CHORUS_IDS:
        violations.append("chorus_id not in {0..5,999}")
    _check_number(violations, "flow", record.flow, integer=True, minimum=0)
    _check_number(violations, "eda", record.eda, minimum=0)
    for ch in EEG_CHANNELS:
        _check_number(violations, f"eeg_{ch}", getattr(record, f"eeg_{ch}"), minimum=0)
    for part, kp in record.keypoints.items():
        if part not in SKELETON_PARTS:
            violations.append(f"{part}: unknown body part")
        if not 0.0 <= kp.confidence <= 1.0:
            violations.append(f"{part}: confidence not in [0,1]")
        if kp.x < SENTINEL:
            violations.append(f"{part}: x below -1")
        if kp.y < SENTINEL:
            violations.append(f"{part}: y below -1")
        if (kp.x == SENTINEL) != (kp.y == SENTINEL):
            violations.append(f"{part}: x/y sentinel mismatch")
    return violations


def validate_session(session: Session) -> list[str]:
    """Session-level invariants plus per-record violations with indices."""
    violations: list[str] = []
    if not session.records:
        violations.append("records empty")
        return violations
    prev = session.records[0].backing_track_position
    for i, record in enumerate(session.records):
        if i > 0:
            if not record.backing_track_position > prev:
                violations.append(f"position not strictly increasing at index {i}")
            prev = record.backing_track_position
        for v in validate_record(record):
            violations.append(f"record {i}: {v}")
    return violations
