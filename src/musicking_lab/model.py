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
skeleton part's x, y and confidence), and, under its index, the extras
mapping of each record that has one, in that record's key order.  One table,
``_COLUMNS``, maps each canonical on-disk name to its short name; ingest
and the column lookup derive from it.  A skeleton part is present in a
record when any of its three columns is not NaN.  ``Session.records`` is a
view of ``Record`` objects built from the columns on first use.  A session
built in code from records must hold numbers or ``None`` in every canonical
field and a number in every master clock, name only known skeleton parts
and give each keypoint all three axes or none, as ingest requires of a
file; anything else raises ``InvariantError`` naming the record.  A number
is an ``int`` or a ``float`` other than NaN (a null is ``None``), as
``validate_record`` counts them: a numpy float64 is a float, a numpy
integer is not.  Sessions pickle and copy by their columns and extras.

Validation is data, not control flow: ``validate_record`` and
``validate_session`` return lists of human-readable violation strings and
never raise.  Each record rule is written once, as a mask over columns
and a message, which ``validate_session`` applies to a session's columns
and ``validate_record`` to one record's values.
"""

from __future__ import annotations

import math
import numbers
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
_LEVEL_FIELDS = _SCALAR_FIELDS[3:]  # flow, EDA and EEG: numbers, none below 0


def _part(columns: Mapping[str, np.ndarray], part: str) -> tuple[np.ndarray, ...]:
    """A skeleton part's x, y and confidence columns, and the mask of the
    records where the part is present: any of the three is not NaN."""
    x, y, confidence = (columns[f"{part}_{axis}"] for axis in SKELETON_AXES)
    return x, y, confidence, ~(np.isnan(x) & np.isnan(y) & np.isnan(confidence))


def _incomplete(nulls: Sequence[np.ndarray]) -> np.ndarray:
    """The mask of the keypoints with some but not all axes null."""
    return np.logical_or.reduce(nulls) & ~np.logical_and.reduce(nulls)


def _isin(values: np.ndarray, labels) -> np.ndarray:
    """``np.isin(values, labels)`` without its ``numpy.ma`` import on empty ``values``."""
    return np.logical_or.reduce([values == label for label in labels])


def _not_increasing(values: np.ndarray) -> np.ndarray:
    """The mask of the values not above the one before them."""
    mask = np.zeros(len(values), dtype=bool)
    mask[1:] = ~(values[1:] > values[:-1])
    return mask


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _float_column(values: Sequence, width: int = 0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Values as a float array (too large -> +-inf), with the mask of those
    that are None and the mask of those that are not numbers; both read NaN.
    A value in neither mask that is not finite is a number that is not.
    With a ``width``, values are rows end to end; each array is C-contiguous (width, n)."""
    types = set(map(type, values))
    if types <= {int, float, type(None)}:
        wrong = np.zeros(len(values), dtype=bool)
    else:
        wrong = np.array([v is not None and not _is_number(v) for v in values], dtype=bool)
        values = [None if w else v for v, w in zip(values, wrong.tolist())]
    try:
        array = np.array(values, dtype=float)
    except OverflowError:  # an integer beyond the range of a double
        array = np.array([v if v is None else _to_float(v) for v in values], dtype=float)
    null = np.isnan(array)
    if types - {int, type(None)}:  # a number may be NaN: tell the None apart
        nan = np.flatnonzero(null)
        null[nan] = [values[i] is None for i in nan.tolist()]
    result = array, null & ~wrong, wrong
    return tuple(np.ascontiguousarray(a.reshape(-1, width).T) for a in result) if width else result


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

    Stored as columns, with each record's extras as its own mapping under
    its index (see the module docstring); ``records`` is a view whose
    length comes from the columns and whose ``Record`` items are built on
    first use, then kept.  Two sessions are equal when their ids, columns
    (NaN equal to NaN) and each record's extras are.

    Raises:
        InvariantError: A canonical value of a record is not a number
            (NaN is not one) or None, a master clock is None or not
            finite, a keypoint names an unknown skeleton part, or some but
            not all of a keypoint's axes are None.
    """

    __slots__ = ("session_id", "records", "_columns", "_extras")

    def __init__(self, session_id: str, records: Sequence[Record]):
        table = []  # each record's scalars, then each part's axes (None where it is absent)
        for i, r in enumerate(records):
            unknown = [part for part in r.keypoints if part not in SKELETON_PARTS]
            if unknown:
                raise InvariantError(f"record {i}: {unknown[0]}: unknown body part")
            table += [getattr(r, name) for name in _SCALAR_FIELDS]
            for p in map(r.keypoints.get, SKELETON_PARTS):
                table += (None,) * 3 if p is None else (p.x, p.y, p.confidence)
        labels = [*_SCALAR_FIELDS, *(f"{p}: {a}" for p in SKELETON_PARTS for a in SKELETON_AXES)]
        arrays, null, wrong = _float_column(table, len(labels))
        bad = wrong | (np.isnan(arrays) & ~null)  # a NaN would read back as null, None here
        if bad.any():
            j, i = np.argwhere(bad)[0].tolist()
            raise InvariantError(f"record {i}: {labels[j]} is not a number: "
                                 f"{table[i * len(labels) + j]!r}")
        columns = {label.replace(": ", "_"): array for label, array in zip(labels, arrays)}
        extras = {i: dict(record.extras) for i, record in enumerate(records) if record.extras}
        position = columns["backing_track_position"]
        for bad, problem in ((np.isnan(position), "required field backing_track_position missing"),
                             (np.isinf(position), "backing_track_position is not finite")):
            if bad.any():
                raise InvariantError(f"record {int(bad.argmax())}: {problem}")
        # A keypoint has all three axes or none, as ingest requires of a file.
        axes = null[len(_SCALAR_FIELDS):].reshape(len(SKELETON_PARTS), 3, len(records))
        incomplete = _incomplete(axes.swapaxes(0, 1))  # part x record
        if incomplete.any():
            i, part = np.argwhere(incomplete.T)[0]
            raise InvariantError(f"record {i}: {SKELETON_PARTS[part]}: incomplete keypoint, "
                                 "an axis is None")
        self._init(session_id, columns, extras)

    @classmethod
    def _from_columns(cls, session_id: str, columns: dict[str, np.ndarray],
                      extras: dict[int, dict[str, object]]) -> Session:
        """A session from its columns keyed by short name, as ingest builds
        it (no checks)."""
        session = cls.__new__(cls)
        session._init(session_id, columns, extras)
        return session

    def _init(self, session_id, columns, extras) -> None:
        for array in columns.values():
            array.flags.writeable = False
        for name, value in (("session_id", session_id), ("records", _RecordView(self)),
                            ("_columns", columns), ("_extras", extras)):
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

    def _build_records(self) -> list[Record]:
        """The Records, each built from its own row of the columns and extras."""
        columns = self._columns
        scalars = [_as_list(columns[name], name in _INTEGER_FIELDS) for name in _SCALAR_FIELDS]
        parts = [(part, *(a.tolist() for a in _part(columns, part))) for part in SKELETON_PARTS]
        records = []
        for i, values in enumerate(zip(*scalars)):
            keypoints = {part: Keypoint(x[i], y[i], confidence[i])
                         for part, x, y, confidence, present in parts if present[i]}
            extras = dict(self._extras.get(i, {}))  # a copy: the session's stays as it is
            records.append(Record(*values, keypoints=keypoints, extras=extras))
        return records


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
            self._items = tuple(self._session._build_records())
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
    4th beat starting from the first.  Construction enforces that shape, at
    least one beat, and a tempo, duration and sample rate above zero, so
    downstream alignment can trust any grid instance.
    """

    beat_times: tuple[float, ...]
    bar_times: tuple[float, ...]
    tempo_bpm: float
    duration_s: float
    audio_sample_rate_hz: int

    def __post_init__(self):
        if not self.beat_times:
            raise InvariantError("beat_times is empty")
        for name in ("tempo_bpm", "duration_s", "audio_sample_rate_hz"):
            if not getattr(self, name) > 0:
                raise InvariantError(f"{name} must be > 0, got {getattr(self, name)!r}")
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
    array, _, _ = _float_column(_extras(session, name))
    array.flags.writeable = False
    return array


def _extras(session: Session, name: str) -> list:
    """One unknown key's values across the records, None where a record
    does not have the key."""
    rows = session._extras
    if not any(name in extras for extras in rows.values()):
        raise UnknownColumn(f"unknown column: {name!r}")
    return [rows[i].get(name) if i in rows else None for i in range(len(session))]


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
    return [v if _is_number(v) else None for v in _extras(session, name)]


# -- validation ------------------------------------------------------------

def _scalar_rules(columns: Mapping[str, np.ndarray]) -> dict[str, list]:
    """Each checked field's rules as (mask, message) pairs over its column
    (NaN for null), in the order a record's violations are listed."""
    chorus, flow = columns["chorus_id"], columns["flow"]
    rules = {"chorus_id": [(~np.isnan(chorus) & ~_isin(chorus, CHORUS_IDS),
                            "chorus_id not in {0..5,999}")],
             "flow": [(~np.isnan(flow) & ~(np.isfinite(flow) & (flow == np.floor(flow))),
                       "flow not an integer")]}
    for name in _LEVEL_FIELDS:
        rules.setdefault(name, []).append((columns[name] < 0, f"{name} below 0"))
    return rules


def _keypoint_rules(part: str, x, y, confidence, present) -> list:
    """One skeleton part's rules, given its columns and presence mask."""
    return [(present & ~((confidence >= 0.0) & (confidence <= 1.0)),
             f"{part}: confidence not in [0,1]"),
            (x < SENTINEL, f"{part}: x below -1"), (y < SENTINEL, f"{part}: y below -1"),
            ((x == SENTINEL) != (y == SENTINEL), f"{part}: x/y sentinel mismatch")]


def _one_row(value) -> np.ndarray:
    """A record's value as a one-row column: None is null; NaN, or a value
    that is not a real number, reads +inf, which breaks every rule NaN does."""
    real = isinstance(value, numbers.Real) and value == value
    return np.array([math.nan if value is None else _to_float(value) if real else math.inf])


def validate_record(record: Record) -> list[str]:
    """Check every Record invariant; return one description per violation.

    An empty list means the record is valid.  Null fields never violate
    anything: missingness is audited separately.  The rules are those of
    :func:`validate_session`, plus what no session holds: a flow, EDA or
    EEG value that is not a number, and an unknown body part.
    """
    values = {name: getattr(record, name) for name in _SCALAR_FIELDS[2:]}
    wrong = {name for name in _LEVEL_FIELDS
             if values[name] is not None and not _is_number(values[name])}
    rules = _scalar_rules({name: _one_row(None if name in wrong else value)
                           for name, value in values.items()})
    violations: list[str] = []
    for name, field_rules in rules.items():
        if name in wrong:
            violations.append(f"{name} not numeric")
        violations += [message for mask, message in field_rules if mask[0]]
    for part, point in record.keypoints.items():
        if part not in SKELETON_PARTS:
            violations.append(f"{part}: unknown body part")
        axes = (_one_row(getattr(point, axis)) for axis in SKELETON_AXES)
        violations += [message for mask, message in _keypoint_rules(part, *axes, True) if mask[0]]
    return violations


def validate_session(session: Session) -> list[str]:
    """Session-level invariants plus per-record violations with indices,
    each record's listed as :func:`validate_record` lists them.  The rules
    are masks over the columns, so no Record is built."""
    if not len(session):
        return ["records empty"]
    columns = session._columns
    rules = [(_not_increasing(columns["backing_track_position"]), None)]
    for field_rules in _scalar_rules(columns).values():
        rules += field_rules
    for part in SKELETON_PARTS:
        rules += _keypoint_rules(part, *_part(columns, part))
    broken = np.array([mask for mask, _ in rules]).T
    return [f"record {i}: {rules[j][1]}" if j else f"position not strictly increasing at index {i}"
            for i, j in np.argwhere(broken).tolist()]
