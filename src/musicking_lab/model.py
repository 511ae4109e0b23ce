"""Domain types for multimodal performance sessions and their invariants.

A session is an ordered list of records sampled while a musician improvises
over a shared backing track.  Each record carries synchronization fields
(backing-track position in milliseconds, inter-record delta, chorus id),
physiological channels (skin conductance, four EEG electrodes), a
self-reported flow score, and a 2-D skeleton with a per-part detector
confidence.  All types are frozen value objects.

A ``Session`` stores its records as columns, after an Apache Arrow record
batch: one map from short column name to a read-only float64 array with
NaN for null, for all 45 canonical columns (the scalar fields and each
skeleton part's x, y and confidence), and the extras per key.  One table,
``_COLUMNS``, maps each canonical on-disk name to its short name; ingest
and the column lookup derive from it.  A skeleton part is present in a
record when any of its three columns is not NaN.  ``Session.records`` is a
view of ``Record`` objects built from the columns on first use.  A session
built in code from records must hold numbers or ``None`` in every canonical
field and name only known skeleton parts; anything else raises
``InvariantError`` naming the record.  A number is an ``int`` or a
``float`` other than NaN (a null is ``None``), as ``validate_record``
counts them: a numpy float64 is a float, a numpy integer is not.
Sessions pickle and copy by their columns.

Validation is data, not control flow: ``validate_record`` and
``validate_session`` return lists of human-readable violation strings and
never raise.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field, fields

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
# The pre- and post-performance labels; a tuple, since ``np.isin`` does not
# read a set as a set of values.
NONPERFORMANCE_CHORUS_IDS: tuple[int, ...] = (0, 999)

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


# -- column schema ---------------------------------------------------------
#
# Each canonical on-disk column name (the source dataset's snake_case), in
# report order, with its short name: the Record field of a scalar, or
# ``{part}_{axis}`` for the skeleton.  A Session keys its columns by the
# short names, which make library call sites readable; both spellings
# resolve.
_COLUMNS: dict[str, str] = {
    "sync_delta": "sync_delta",
    "sync_chorus_id": "chorus_id",
    "backing_track_position": "backing_track_position",
    "flow": "flow",
    "hardware_bitalino_eda": "eda",
    **{f"hardware_brainbit_eeg_{ch}": f"eeg_{ch}" for ch in EEG_CHANNELS},
    **{f"hardware_skeleton_{part}_{axis}": f"{part}_{axis}"
       for part in SKELETON_PARTS for axis in SKELETON_AXES},
}
_ALIASES: dict[str, str] = {**_COLUMNS, **{name: name for name in _COLUMNS.values()}}

# Scalar Record fields (all but keypoints and extras) in field order, the
# master clock first; the integer ones read back as int.
_SCALAR_FIELDS: tuple[str, ...] = tuple(f.name for f in fields(Record))[:-2]
_INTEGER_FIELDS = frozenset(_SCALAR_FIELDS[2:])


def _part(columns: Mapping[str, np.ndarray], part: str) -> tuple[np.ndarray, ...]:
    """A skeleton part's x, y and confidence columns, and the mask of the
    records where the part is present: any of the three is not NaN."""
    x, y, confidence = (columns[f"{part}_{axis}"] for axis in SKELETON_AXES)
    return x, y, confidence, ~(np.isnan(x) & np.isnan(y) & np.isnan(confidence))


class _Absent:
    """Marks the records of an extras column that do not have the key; it
    pickles and copies as the one module-level instance."""

    __slots__ = ()

    def __reduce__(self):
        return "_ABSENT"

    def __repr__(self) -> str:
        return "_ABSENT"


_ABSENT = _Absent()


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _float_column(values: list) -> tuple[np.ndarray, list[int]]:
    """Numbers or None as a float array (None -> NaN, too large -> +-inf),
    plus the indices of the other values, which read 0.0."""
    wrong: list[int] = []
    if not set(map(type, values)) <= {int, float, type(None)}:
        wrong = [i for i, v in enumerate(values) if v is not None and not _is_number(v)]
        values = list(values)
        for i in wrong:
            values[i] = 0.0
    try:
        return np.array(values, dtype=float), wrong
    except OverflowError:  # an integer beyond the range of a double
        return np.array([v if v is None else _to_float(v) for v in values], dtype=float), wrong


def _to_float(value) -> float:
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _as_list(arr: np.ndarray, integer: bool) -> list:
    """A column as Python values: None for NaN, int for an integral value
    of an integer field."""
    if integer:
        return [None if v != v else int(v) if v.is_integer() else v for v in arr.tolist()]
    return [None if v != v else v for v in arr.tolist()]


class Session:
    """Ordered records for one musician, keyed by an opaque session id.

    Stored as columns (see the module docstring); ``records`` is a view
    whose length comes from the columns and whose ``Record`` items are
    built on first use, then kept.  Two sessions are equal when their ids,
    columns (NaN equal to NaN) and extras are.

    Raises:
        InvariantError: A canonical value of a record is not a number
            (NaN is not one) or None, or a keypoint names an unknown
            skeleton part.
    """

    __slots__ = ("session_id", "records", "_columns", "_extras")

    def __init__(self, session_id: str, records: Sequence[Record]):
        n = len(records)
        points: dict[str, list] = {part: [None] * n for part in SKELETON_PARTS}
        extras: dict[str, list] = {}
        for i, record in enumerate(records):
            for part, point in record.keypoints.items():
                if part not in points:
                    raise InvariantError(f"record {i}: {part}: unknown body part")
                points[part][i] = point
            for key, value in record.extras.items():
                extras.setdefault(key, [_ABSENT] * n)[i] = value
        # Short name -> (error label, values), scalars first.
        raw = {name: (name, [getattr(r, name) for r in records]) for name in _SCALAR_FIELDS}
        for part, column in points.items():
            for axis in SKELETON_AXES:
                raw[f"{part}_{axis}"] = (f"{part}: {axis}",
                                         [None if p is None else getattr(p, axis) for p in column])
        columns = {}
        for name, (label, values) in raw.items():
            columns[name], wrong = _float_column(values)
            # A NaN would read back as null, which is None here.
            wrong = wrong or [i for i in np.flatnonzero(np.isnan(columns[name])).tolist()
                              if values[i] is not None]
            if wrong:
                raise InvariantError(f"record {wrong[0]}: {label} is not a number: "
                                     f"{values[wrong[0]]!r}")
        self._init(session_id, columns, extras)

    @classmethod
    def _from_columns(cls, session_id: str, columns: dict[str, np.ndarray],
                      extras: dict[str, list]) -> Session:
        """A session from its columns keyed by short name, as ingest builds
        it (no checks)."""
        session = cls.__new__(cls)
        session._init(session_id, columns, extras)
        return session

    def _init(self, session_id, columns, extras) -> None:
        for array in columns.values():
            array.flags.writeable = False
        for name, value in (("session_id", session_id), ("records", _RecordView(self)),
                            ("_columns", columns),
                            ("_extras", {key: tuple(v) for key, v in extras.items()})):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"Session is immutable: cannot set {name!r}")

    def __reduce__(self):
        return Session._from_columns, (self.session_id, self._columns, self._extras)

    def __len__(self) -> int:
        return len(self._columns["backing_track_position"])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Session):
            return NotImplemented
        return (self.session_id == other.session_id and self._extras == other._extras
                and all(np.array_equal(self._columns[name], other._columns[name], equal_nan=True)
                        for name in _COLUMNS.values()))

    __hash__ = None

    def __repr__(self) -> str:
        return f"Session(session_id={self.session_id!r}, records=<{len(self)} records>)"

    def _build_records(self) -> tuple[Record, ...]:
        scalars = [_as_list(self._columns[name], name in _INTEGER_FIELDS)
                   for name in _SCALAR_FIELDS]
        parts = [(part, *(a.tolist() for a in _part(self._columns, part)))
                 for part in SKELETON_PARTS]
        records = []
        for i, values in enumerate(zip(*scalars)):
            keypoints = {part: Keypoint(x[i], y[i], confidence[i])
                         for part, x, y, confidence, present in parts if present[i]}
            extras = {key: v[i] for key, v in self._extras.items() if v[i] is not _ABSENT}
            records.append(Record(*values, keypoints=keypoints, extras=extras))
        return tuple(records)


class _RecordView(Sequence):
    """``Session.records``: the length is read from the columns; the items
    are built from them on first use and kept."""

    __slots__ = ("_session", "_items")

    def __init__(self, session: Session):
        self._session = session
        self._items = None

    def __len__(self) -> int:
        return len(self._session)

    def __getitem__(self, index):
        if self._items is None:
            self._items = self._session._build_records()
        return self._items[index]

    def __eq__(self, other) -> bool:
        if not isinstance(other, (tuple, _RecordView)):
            return NotImplemented
        return self[:] == other[:]

    def __repr__(self) -> str:
        return repr(self[:])


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


# -- column lookup ---------------------------------------------------------

def canonical_columns() -> tuple[str, ...]:
    """All canonical column names in report order."""
    return tuple(_COLUMNS)


def _column(session: Session, name: str) -> np.ndarray:
    """One column as a read-only float array, NaN for null; resolves like
    :func:`column_values`."""
    if name in _ALIASES:
        return session._columns[_ALIASES[name]]
    array, _ = _float_column(_extras_values(session, name))
    array.flags.writeable = False
    return array


def _extras_values(session: Session, name: str) -> list:
    values = session._extras.get(name)
    if values is None:
        raise UnknownColumn(f"unknown column: {name!r}")
    return [v if _is_number(v) else None for v in values]


def column_values(session: Session, name: str) -> list[float | None]:
    """Extract one column as a list of numbers with ``None`` for missing.

    Accepts canonical names (``hardware_bitalino_eda``) or short aliases
    (``eda``, ``l_wrist_x``).  Integer fields (chorus id, flow, EDA, EEG)
    give ``int`` for integral values.  Unknown names fall back to
    per-record ``extras``, whose numbers come back as stored; non-numeric
    extras become ``None``.

    Raises:
        UnknownColumn: If the name is neither canonical nor present in any
            record's extras.
    """
    if name in _ALIASES:
        return _as_list(_column(session, name), _ALIASES[name] in _INTEGER_FIELDS)
    return _extras_values(session, name)


# -- validation ------------------------------------------------------------

def _check_number(violations: list[str], label: str, value, *, integer=False,
                  minimum=None) -> None:
    if value is None:
        return
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        violations.append(f"{label} not numeric")
        return
    if integer and not _to_float(value).is_integer():
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
    """Session-level invariants plus per-record violations with indices.

    Array masks find the records with a violation; only those are checked
    by :func:`validate_record`, which words the messages.
    """
    if not len(session):
        return ["records empty"]
    columns = session._columns
    position = columns["backing_track_position"]
    clock = np.zeros(len(session), dtype=bool)
    clock[1:] = ~(position[1:] > position[:-1])
    chorus, flow = columns["chorus_id"], columns["flow"]
    bad = ~np.isnan(chorus) & ~np.isin(chorus, list(CHORUS_IDS))
    bad |= ~np.isnan(flow) & ((flow < 0) | ~np.isfinite(flow) | (flow != np.floor(flow)))
    for name in ("eda", *(f"eeg_{ch}" for ch in EEG_CHANNELS)):
        bad |= columns[name] < 0
    for part in SKELETON_PARTS:
        x, y, confidence, present = _part(columns, part)
        bad |= present & (~((confidence >= 0.0) & (confidence <= 1.0)) | (x < SENTINEL)
                          | (y < SENTINEL) | ((x == SENTINEL) != (y == SENTINEL)))
    violations: list[str] = []
    for i in np.flatnonzero(clock | bad).tolist():
        if clock[i]:
            violations.append(f"position not strictly increasing at index {i}")
        if bad[i]:
            violations.extend(f"record {i}: {v}" for v in validate_record(session.records[i]))
    return violations
