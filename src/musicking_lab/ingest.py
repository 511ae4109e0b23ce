"""Parsers for session files and the beat-grid file, plus dataset discovery.

Session files are JSON: one top-level array of flat record objects with
canonical snake_case keys and ``null`` for missing values.  The beat grid
is a JSON object with ``tempo_bpm``, ``duration_s``, ``audio_sample_rate_hz``
and the ``beats_s`` / ``bars_s`` onset arrays; the grid for the shared
backing track ships with the package.

Ingest enforces the input contract: every number is finite (``NaN`` and
``Infinity`` literals are rejected, as are literals that overflow a
double) and the master clock ``backing_track_position`` is present and
strictly increasing.  A file that breaks it raises ``MalformedDocument``
or ``SchemaError`` and never reaches analysis.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from math import isfinite
from pathlib import Path
from typing import Iterator

from .errors import MalformedDocument, MusickingError, SchemaError
from .model import (
    SKELETON_AXES,
    SKELETON_PARTS,
    BeatGrid,
    EEG_CHANNELS,
    Keypoint,
    Record,
    Session,
)

SESSION_FILE_SUFFIX = ".json"

_INT_FIELDS = {
    "sync_chorus_id": "chorus_id",
    "flow": "flow",
    "hardware_bitalino_eda": "eda",
}
for _ch in EEG_CHANNELS:
    _INT_FIELDS[f"hardware_brainbit_eeg_{_ch}"] = f"eeg_{_ch}"

# Per skeleton part: its name, its error label and its (x, y, confidence)
# keys, formatted once here rather than for every record.
_KEYPOINT_KEYS = tuple(
    (part, f"hardware_skeleton_{part}",
     tuple(f"hardware_skeleton_{part}_{axis}" for axis in SKELETON_AXES))
    for part in SKELETON_PARTS)

_RECOGNIZED_KEYS = (
    {"session_id", "sync_delta", "backing_track_position"}
    | set(_INT_FIELDS)
    | {key for _, _, keys in _KEYPOINT_KEYS for key in keys}
)


def _require_number(value, key: str, row: int) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{key} is not numeric: {value!r}", row=row)
    try:
        number = float(value)
    except OverflowError:  # an integer literal beyond the range of a double
        number = float("inf")
    if not isfinite(number):
        raise SchemaError(f"{key} is not finite", row=row)
    return number


def _opt_int(value, key: str, row: int) -> int | None:
    if value is None:
        return None
    number = _require_number(value, key, row)
    if not number.is_integer():
        raise SchemaError(f"{key} must be an integer, got {value!r}", row=row)
    return int(number)


def _opt_float(value, key: str, row: int) -> float | None:
    if value is None:
        return None
    return _require_number(value, key, row)


def _parse_keypoints(obj: dict, row: int) -> dict[str, Keypoint]:
    keypoints = {}
    for part, label, keys in _KEYPOINT_KEYS:
        values = [obj.get(key) for key in keys]
        if all(v is None for v in values):
            continue
        if any(v is None for v in values):
            raise SchemaError(f"incomplete keypoint for {part}", row=row)
        x, y, conf = (_require_number(v, label, row) for v in values)
        keypoints[part] = Keypoint(x=x, y=y, confidence=conf)
    return keypoints


def _parse_record(obj: dict, row: int) -> Record:
    if not isinstance(obj, dict):
        raise MalformedDocument(f"row {row}: record is not an object")
    if obj.get("backing_track_position") is None:
        raise SchemaError("required field backing_track_position missing", row=row)

    fields: dict = {
        "backing_track_position": _require_number(
            obj["backing_track_position"], "backing_track_position", row),
        "sync_delta": _opt_float(obj.get("sync_delta"), "sync_delta", row),
    }
    for key, attr in _INT_FIELDS.items():
        fields[attr] = _opt_int(obj.get(key), key, row)
    fields["keypoints"] = _parse_keypoints(obj, row)
    fields["extras"] = extras = {k: v for k, v in obj.items() if k not in _RECOGNIZED_KEYS}
    for key, value in extras.items():
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            _require_number(value, key, row)

    session_id = obj.get("session_id")
    if session_id is not None and not isinstance(session_id, str):
        raise SchemaError(f"session_id is not a string: {session_id!r}", row=row)
    return Record(**fields)


def _reject_constant(literal: str):
    raise MalformedDocument(f"non-finite literal {literal} is not allowed")


def _decode_rows(data: bytes | str) -> list:
    if isinstance(data, bytes):
        data = data.decode("utf-8", errors="replace")
    try:
        rows = json.loads(data, parse_constant=_reject_constant)
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and integer literals too long to
        # convert; RecursionError, arrays or objects nested too deeply.
        raise MalformedDocument(f"not valid JSON: {exc}") from exc
    if not isinstance(rows, list):
        raise MalformedDocument("top level is not an array of records")
    return rows


def _session_id(rows: list, fallback_session_id: str) -> str:
    # The first non-null session_id of the records, else the fallback.
    for obj in rows:
        if isinstance(obj, dict) and obj.get("session_id") is not None:
            return obj["session_id"] or fallback_session_id
    return fallback_session_id


def parse_session_file(data: bytes | str, fallback_session_id: str = "") -> Session:
    """Parse a session document into a Session, preserving record order.

    Unknown columns are kept verbatim per record in ``Record.extras``; absent
    values become ``None``.  The session id is taken from the records'
    ``session_id`` column when present, otherwise from
    ``fallback_session_id`` (callers typically pass the file stem).

    Raises:
        MalformedDocument: Not JSON, a ``NaN``/``Infinity`` literal, or not
            an array of objects.
        SchemaError: A required field is missing, mistyped or not finite,
            or the master clock does not strictly increase; reports the
            0-based row index of the first failure.
    """
    rows = _decode_rows(data)
    records = []
    previous = None
    for i, obj in enumerate(rows):
        record = _parse_record(obj, i)
        position = record.backing_track_position
        if previous is not None and not position > previous:
            raise SchemaError(f"backing_track_position {position!r} not strictly increasing "
                              f"(previous {previous!r})", row=i)
        previous = position
        records.append(record)
    return Session(session_id=_session_id(rows, fallback_session_id), records=tuple(records))


def serialize_session(session: Session) -> str:
    """Render a Session back to the canonical JSON document.

    Inverse of :func:`parse_session_file`: parsing the output yields an
    equal Session.  Extras are written at the top level of each record, so
    their keys must not collide with canonical column names.
    """
    rows = []
    for r in session.records:
        obj: dict = {"session_id": session.session_id}
        obj["sync_delta"] = r.sync_delta
        obj["sync_chorus_id"] = r.chorus_id
        obj["backing_track_position"] = r.backing_track_position
        obj["flow"] = r.flow
        obj["hardware_bitalino_eda"] = r.eda
        for ch in EEG_CHANNELS:
            obj[f"hardware_brainbit_eeg_{ch}"] = getattr(r, f"eeg_{ch}")
        for part, kp in r.keypoints.items():
            obj[f"hardware_skeleton_{part}_x"] = kp.x
            obj[f"hardware_skeleton_{part}_y"] = kp.y
            obj[f"hardware_skeleton_{part}_confidence"] = kp.confidence
        obj.update(r.extras)
        rows.append(obj)
    return json.dumps(rows, indent=1, sort_keys=False)


def load_session(path: str | Path) -> Session:
    """Read and parse one session file; the file stem is the fallback id."""
    path = Path(path)
    return parse_session_file(path.read_bytes(), fallback_session_id=path.stem)


def parse_beat_grid(data: bytes | str) -> BeatGrid:
    """Parse the beat-grid document and enforce every BeatGrid invariant.

    Raises:
        MalformedDocument: Bad JSON, missing keys, or mistyped values.
        InvariantError: Onset lists not strictly increasing, or a bar time
            that is not on a beat (raised from BeatGrid construction).
    """
    if isinstance(data, bytes):
        data = data.decode("utf-8", errors="replace")
    try:
        obj = json.loads(data)
    except json.JSONDecodeError as exc:
        raise MalformedDocument(f"not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise MalformedDocument("beat grid document is not an object")
    try:
        beats = tuple(float(v) for v in obj["beats_s"])
        bars = tuple(float(v) for v in obj["bars_s"])
        tempo = float(obj["tempo_bpm"])
        duration = float(obj["duration_s"])
        rate = int(obj["audio_sample_rate_hz"])
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedDocument(f"beat grid field invalid: {exc}") from exc
    return BeatGrid(beat_times=beats, bar_times=bars, tempo_bpm=tempo,
                    duration_s=duration, audio_sample_rate_hz=rate)


def load_bundled_beat_grid() -> BeatGrid:
    """Beat grid of the shared backing track, shipped as package data."""
    text = resources.files("musicking_lab.data").joinpath("backing_track_grid.json").read_text()
    return parse_beat_grid(text)


@dataclass(frozen=True)
class ManifestEntry:
    session_id: str
    path: str
    record_count: int


@dataclass(frozen=True)
class DatasetManifest:
    """Discovered session files, sorted by session id, plus a skip list."""

    entries: tuple[ManifestEntry, ...]
    skipped: tuple[tuple[str, str], ...] = ()  # (path, reason)

    def session_ids(self) -> list[str]:
        return [e.session_id for e in self.entries]


def _session_paths(directory: str | Path) -> list[Path]:
    return sorted(path for path in Path(directory).iterdir()
                  if path.suffix == SESSION_FILE_SUFFIX and path.is_file())


class DatasetWalk:
    """One pass over a directory's session files, in file-name order.

    Iterating parses each file once and yields every accepted Session.
    Files that fail to parse are skipped with the reason rather than
    aborting the walk; exploratory corpora routinely contain a bad file.
    Duplicate session ids keep the first file and skip the rest.  The
    directory is listed on construction, so a missing one raises there.

    Raises:
        OSError: Directory missing or unreadable.
    """

    def __init__(self, directory: str | Path):
        self._paths = _session_paths(directory)
        self._entries: list[ManifestEntry] = []
        self._skipped: list[tuple[str, str]] = []

    def __iter__(self) -> Iterator[Session]:
        seen: set[str] = set()
        for path in self._paths:
            try:
                session = load_session(path)
            except MusickingError as exc:
                self._skipped.append((str(path), str(exc)))
                continue
            if session.session_id in seen:
                self._skipped.append((str(path), f"duplicate session_id {session.session_id!r}"))
                continue
            seen.add(session.session_id)
            self._entries.append(ManifestEntry(session.session_id, str(path),
                                               len(session.records)))
            yield session

    def manifest(self) -> DatasetManifest:
        """Sessions accepted and files skipped so far; entries sorted by id."""
        entries = sorted(self._entries, key=lambda e: e.session_id)
        return DatasetManifest(entries=tuple(entries), skipped=tuple(self._skipped))


def discover_dataset(directory: str | Path) -> DatasetManifest:
    """Scan a directory for session files; see :class:`DatasetWalk`.

    Raises:
        OSError: Directory missing or unreadable.
    """
    walk = DatasetWalk(directory)
    for _ in walk:
        pass
    return walk.manifest()


def find_session(directory: str | Path, session_id: str) -> Session | None:
    """The session ``discover_dataset`` would list under ``session_id``.

    Files are tried in name order; each is decoded to read its id, and only
    a file whose id matches is fully parsed.  The first such file that
    parses wins; one that fails is passed over, as the walk skips it.
    Returns None when no file holds the id.

    Raises:
        OSError: Directory missing or unreadable.
    """
    for path in _session_paths(directory):
        try:
            rows = _decode_rows(path.read_bytes())
        except MalformedDocument:
            continue
        if _session_id(rows, path.stem) != session_id:
            continue
        del rows  # free the decoded document before the full parse decodes it again
        try:
            return load_session(path)
        except MusickingError:
            continue
    return None
