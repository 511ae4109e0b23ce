"""Parsers for session files and the beat-grid file, plus dataset discovery.

Session files are JSON: one top-level array of flat record objects with
canonical snake_case keys and ``null`` for missing values.  The beat grid
is a JSON object with ``tempo_bpm``, ``duration_s``, ``audio_sample_rate_hz``
and the ``beats_s`` / ``bars_s`` onset arrays; the grid for the shared
backing track ships with the package.

A file is decoded once and parsed by column: each canonical key becomes
the float array that the ``Session`` keeps under its short name (the one
column table, ``model._COLUMNS``, names both), in a single pass over the
rows, with no per-record objects.  The recognized keys, the integer keys
and the check order all come from that table.  Ingest enforces the input
contract with array checks: every number is finite (``NaN`` and
``Infinity`` literals are rejected, as are literals that overflow a double)
and the master clock ``backing_track_position`` is present and strictly
increasing.  A file that breaks it raises ``MalformedDocument`` or
``SchemaError`` naming the first failing row, and never reaches analysis.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from importlib import resources
from itertools import chain
from math import isfinite
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import MalformedDocument, MusickingError, SchemaError
from .model import (
    _ABSENT,
    _COLUMNS,
    _INTEGER_FIELDS,
    _SCALAR_FIELDS,
    SKELETON_AXES,
    SKELETON_PARTS,
    BeatGrid,
    Session,
    _float_column,
    _is_number,
    _part,
)

SESSION_FILE_SUFFIX = ".json"

# The canonical key of each short name, from the one column table.
_KEYS = {name: key for key, name in _COLUMNS.items()}
# Scalar keys in check order: the master clock first, as in Record.
_SCALAR_KEYS = tuple(_KEYS[name] for name in _SCALAR_FIELDS)
# Per skeleton part: its name, its error label and its (x, y, confidence)
# keys, looked up once here rather than for every record.
_KEYPOINT_KEYS = tuple(
    (part, f"hardware_skeleton_{part}",
     tuple(_KEYS[f"{part}_{axis}"] for axis in SKELETON_AXES))
    for part in SKELETON_PARTS)
_RECOGNIZED_KEYS = frozenset({"session_id", *_COLUMNS})


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


def _check_row(obj, row: int) -> None:
    """Raise the first contract error of one row, in the order the checks
    are documented; return if the row keeps the contract."""
    if not isinstance(obj, dict):
        raise MalformedDocument(f"row {row}: record is not an object")
    if obj.get("backing_track_position") is None:
        raise SchemaError("required field backing_track_position missing", row=row)
    for key in _SCALAR_KEYS:
        value = obj.get(key)
        if value is not None:
            number = _require_number(value, key, row)
            if _COLUMNS[key] in _INTEGER_FIELDS and not number.is_integer():
                raise SchemaError(f"{key} must be an integer, got {value!r}", row=row)
    for part, label, keys in _KEYPOINT_KEYS:
        values = [obj.get(key) for key in keys]
        if all(v is None for v in values):
            continue
        if any(v is None for v in values):
            raise SchemaError(f"incomplete keypoint for {part}", row=row)
        for value in values:
            _require_number(value, label, row)
    for key, value in obj.items():
        if key not in _RECOGNIZED_KEYS and _is_number(value):
            _require_number(value, key, row)
    session_id = obj.get("session_id")
    if session_id is not None and not isinstance(session_id, str):
        raise SchemaError(f"session_id is not a string: {session_id!r}", row=row)


def _reject_constant(literal: str):
    raise MalformedDocument(f"non-finite literal {literal} is not allowed")


# A decoder with ``_decode_rows``' settings, for reading one record at a
# time, and the opening of a top-level array: JSON whitespace, "[", whitespace.
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)
_ARRAY_START = re.compile(r"[ \t\n\r]*\[[ \t\n\r]*")
# Bytes read from the start of a file to learn its id from its first record.
_PROBE_BYTES = 64 * 1024


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


def parse_session_file(data: bytes | str | list, fallback_session_id: str = "") -> Session:
    """Parse a session document into a Session, preserving record order.

    The document is decoded once (``data`` may also be the list a decode
    of it already gave) and each column is built in one pass over the
    rows, then checked with array operations.  Unknown columns are kept
    verbatim per record as extras; absent values become null.  The session
    id is taken from the records' ``session_id`` column when present,
    otherwise from ``fallback_session_id`` (callers typically pass the file
    stem).

    Raises:
        MalformedDocument: Not JSON, a ``NaN``/``Infinity`` literal, or not
            an array of objects.
        SchemaError: A required field is missing, mistyped or not finite,
            or the master clock does not strictly increase; reports the
            0-based row index of the first failure.
    """
    rows = data if isinstance(data, list) else _decode_rows(data)
    n = next((i for i, obj in enumerate(rows) if not isinstance(obj, dict)), len(rows))
    body = rows[:n]  # the rows before the first one that is not an object
    bad = np.zeros(n, dtype=bool)
    columns = {}
    for key, name in _COLUMNS.items():
        columns[name], wrong = _float_column([obj.get(key) for obj in body])
        bad[wrong] = True
        bad |= np.isinf(columns[name])
    position = columns["backing_track_position"]
    bad |= np.isnan(position)
    for name in _INTEGER_FIELDS:
        bad |= np.isfinite(columns[name]) & (columns[name] != np.floor(columns[name]))
    for part in SKELETON_PARTS:
        x, y, confidence, present = _part(columns, part)
        bad |= present & (np.isnan(x) | np.isnan(y) | np.isnan(confidence))
    extras = {}
    if set().union(*body) - _RECOGNIZED_KEYS:
        for key in dict.fromkeys(chain.from_iterable(body)):
            if key not in _RECOGNIZED_KEYS:
                extras[key] = [obj.get(key, _ABSENT) for obj in body]
                numbers, _ = _float_column([v if _is_number(v) else None for v in extras[key]])
                bad |= np.isinf(numbers)
    ids = [obj.get("session_id") for obj in body]
    bad[[i for i, v in enumerate(ids) if v is not None and not isinstance(v, str)]] = True
    clock = np.zeros(n, dtype=bool)
    clock[1:] = ~(position[1:] > position[:-1])
    failed = bad | clock
    if failed.any() or n < len(rows):
        # The first failing row; its own checks come before the clock's.
        row = int(failed.argmax()) if failed.any() else n
        _check_row(rows[row], row)
        raise SchemaError(f"backing_track_position {float(position[row])!r} not strictly "
                          f"increasing (previous {float(position[row - 1])!r})", row=row)
    return Session._from_columns(_session_id(rows, fallback_session_id), columns, extras)


def serialize_session(session: Session) -> str:
    """Render a Session back to the canonical JSON document.

    Inverse of :func:`parse_session_file`: parsing the output yields an
    equal Session.  Extras are written at the top level of each record, so
    their keys must not collide with canonical column names.

    Raises:
        MalformedDocument, SchemaError: What :func:`parse_session_file`
            raises on the output, for a session that breaks the input contract.
    """
    scalar_keys = [(key, name) for key, name in _COLUMNS.items() if name in _SCALAR_FIELDS]
    rows = []
    for r in session.records:
        obj: dict = {"session_id": session.session_id}
        obj.update((key, getattr(r, name)) for key, name in scalar_keys)
        for part, _, keys in _KEYPOINT_KEYS:  # the order the records view holds them in
            kp = r.keypoints.get(part)
            if kp is not None:
                obj.update(zip(keys, (kp.x, kp.y, kp.confidence)))
        obj.update(r.extras)
        rows.append(obj)
    text = json.dumps(rows, indent=1, sort_keys=False)
    parse_session_file(text)  # the parser's rules are the only rules
    return text


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
            self._entries.append(ManifestEntry(session.session_id, str(path), len(session)))
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


def _first_record_id(path: Path):
    """The file's session id read from its first record alone, or None when
    that record cannot decide it and the whole file must be decoded.

    Row 0 decides when it is an object with a non-null ``session_id``: then
    it is the first such record, and ``_session_id`` takes its value (an
    empty one falls back to the file stem).  Only a bounded prefix of the
    file is read; a row 0 that does not end inside it leaves the decoder
    short of input, which is one of the undecided outcomes.
    """
    with path.open("rb") as file:
        text = file.read(_PROBE_BYTES).decode("utf-8", errors="replace")
    start = _ARRAY_START.match(text)
    if start is None:
        return None
    try:
        row, _ = _DECODER.raw_decode(text, start.end())
    except (ValueError, RecursionError, MalformedDocument):
        return None
    if not isinstance(row, dict) or row.get("session_id") is None:
        return None
    return _session_id([row], path.stem)


def find_session(directory: str | Path, session_id: str) -> Session | None:
    """The session ``discover_dataset`` would list under ``session_id``.

    Files are tried in name order.  Each file's id is read from its first
    record, from a bounded prefix of the file; only when that record has no
    id (or is not an object, or does not fit the prefix) is the whole file
    decoded to read the id as ``parse_session_file`` does, and then those
    rows are parsed.  Only a file whose id matches is fully parsed, and each
    file is decoded at most once.  The first such file that parses wins;
    one that fails is passed over, as the walk skips it.  Returns None when
    no file holds the id.

    Raises:
        OSError: Directory missing or unreadable.
    """
    for path in _session_paths(directory):
        rows = None
        file_id = _first_record_id(path)
        if file_id is None:
            try:
                rows = _decode_rows(path.read_bytes())
            except MalformedDocument:
                continue
            file_id = _session_id(rows, path.stem)
        if file_id != session_id:
            continue
        try:
            return load_session(path) if rows is None else parse_session_file(rows, path.stem)
        except MusickingError:
            continue
    return None
