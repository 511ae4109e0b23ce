"""Parsers for session files and the beat-grid file, plus dataset discovery.

Session files are JSON: one top-level array of flat record objects with
canonical snake_case keys and ``null`` for missing values.  The beat grid
is a JSON object with ``tempo_bpm``, ``duration_s``, ``audio_sample_rate_hz``
and the ``beats_s`` / ``bars_s`` onset arrays; the grid for the shared
backing track ships with the package.

A file is decoded once, and the canonical values of its rows become one
table that a single ``_float_column`` call turns into the ``Session``'s
float columns, with no per-record objects.  The one column table,
``model._COLUMNS``, gives the keys, their short names, the integer keys
and the check order.  Each rule of the input contract is written once, as
a row mask and a message: every number is finite (``NaN`` and
``Infinity`` literals are rejected, as are literals that overflow a
double) and the master clock ``backing_track_position`` is present and
strictly increasing.  A file that breaks it raises ``MalformedDocument``
or ``SchemaError`` naming the first failing row, and never reaches
analysis.  The beat grid is read with the same decoder.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from importlib import resources
from itertools import chain
from operator import itemgetter
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import MalformedDocument, MusickingError, SchemaError
from .model import (
    _COLUMNS,
    _INTEGER_FIELDS,
    _KEYPOINT_KEYS,
    _KEYS,
    _SCALAR_FIELDS,
    BeatGrid,
    Session,
    _float_column,
    _incomplete,
    _not_increasing,
)

SESSION_FILE_SUFFIX = ".json"

_ROW = itemgetter(*_COLUMNS)  # a row's canonical values, in column order


def _reject_constant(literal: str):
    raise MalformedDocument(f"non-finite literal {literal} is not allowed")


# A decoder with ``_decode_rows``' settings, for reading one record at a
# time, and the opening of a top-level array: JSON whitespace, "[", whitespace.
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)
_ARRAY_START = re.compile(r"[ \t\n\r]*\[[ \t\n\r]*")
# Bytes read from the start of a file to learn its id from its first record.
_PROBE_BYTES = 64 * 1024


def _decode(data: bytes | str):
    if isinstance(data, bytes):
        data = data.decode("utf-8", errors="replace")
    try:
        return json.loads(data, parse_constant=_reject_constant)
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and integer literals too long to
        # convert; RecursionError, arrays or objects nested too deeply.
        raise MalformedDocument(f"not valid JSON: {exc}") from exc


def _decode_rows(data: bytes | str) -> list:
    rows = _decode(data)
    if not isinstance(rows, list):
        raise MalformedDocument("top level is not an array of records")
    return rows


def _session_id(rows: list, fallback_session_id: str) -> tuple[str, int | None]:
    # The first non-null session_id of the records and its row, else the
    # fallback and no row.
    for row, obj in enumerate(rows):
        if isinstance(obj, dict) and obj.get("session_id") is not None:
            return (obj["session_id"], row) if obj["session_id"] else (fallback_session_id, None)
    return fallback_session_id, None


def parse_session_file(data: bytes | str | list, fallback_session_id: str = "") -> Session:
    """Parse a session document into a Session, preserving record order.

    The document is decoded once (``data`` may also be the list a decode
    of it already gave, which keeps the same contract: a float NaN in it
    is not finite), read as one table and checked with array operations.
    Unknown columns are kept verbatim per record as extras; absent values
    become null.  The session id is taken from the records' ``session_id``
    column when present, otherwise from ``fallback_session_id`` (callers
    typically pass the file stem).

    Raises:
        MalformedDocument: Not JSON, a ``NaN``/``Infinity`` literal, or not
            an array of objects.
        SchemaError: A required field is missing, mistyped or not finite,
            the master clock does not strictly increase, or the session id,
            which names output files, is ``.``, ``..`` or holds ``/``,
            ``\\`` or NUL; reports the 0-based row index of the first failure.
    """
    rows = data if isinstance(data, list) else _decode_rows(data)
    n = next((i for i, obj in enumerate(rows) if not isinstance(obj, dict)), len(rows))
    body = rows[:n]  # the rows before the first one that is not an object
    try:  # the canonical values as one table, row after row
        table = list(chain.from_iterable(map(_ROW, body)))
        no_extras = sum(map(len, body)) == len(table) + sum("session_id" in obj for obj in body)
    except KeyError:  # a row lacks a canonical key, which reads null there
        table, no_extras = [obj.get(key) for obj in body for key in _COLUMNS], False
    unknown = set() if no_extras else set().union(*body) - {"session_id", *_COLUMNS}
    read = dict(zip(_COLUMNS, zip(*_float_column(table, len(_COLUMNS)))))
    read.update((key, _float_column([obj.get(key) for obj in body])) for key in unknown)
    rules = _contract_rules(body, read, unknown)
    failed = np.logical_or.reduce([mask for mask, _ in rules])
    if failed.any():
        row = int(failed.argmax())
        raise SchemaError(next(message(row) for mask, message in rules if mask[row]), row=row)
    if n < len(rows):
        raise MalformedDocument(f"row {n}: record is not an object")
    session_id, row = _session_id(rows, fallback_session_id)
    if session_id in (".", "..") or re.search(r"[/\\\0]", session_id):
        raise SchemaError(f"session_id {session_id!r} is not a file name", row=row)
    columns = {name: read[key][0] for key, name in _COLUMNS.items()}
    extras = {i: {key: value for key, value in obj.items() if key in unknown}
              for i, obj in enumerate(body) if unknown and not obj.keys().isdisjoint(unknown)}
    return Session._from_columns(session_id, columns, extras)


def _contract_rules(body: list, read: dict, unknown: set) -> list:
    """Each rule of the input contract as a pair: the mask of the rows of
    ``body`` that break it, and its message for row i.  ``read`` holds the
    ``_float_column`` (array, null, not a number) of each canonical key and
    of each key in ``unknown``, the keys that are extras in some row.  In
    the order a row's checks are documented: the master clock present;
    each scalar a number, finite, and an integer in an integer field; each
    keypoint complete, its axes numbers and finite; numeric extras finite;
    the session id a string; the master clock strictly increasing."""
    not_finite = {key: ~(np.isfinite(column) | null | wrong)
                  for key, (column, null, wrong) in read.items()}

    def number_rules(key, label):
        return [(read[key][2], lambda i: f"{label} is not numeric: {body[i][key]!r}"),
                (not_finite[key], lambda i: f"{label} is not finite")]

    def extras_message(i):
        # A row with several such extras names the first in its own key order.
        return f"{next(k for k in body[i] if k in unknown and not_finite[k][i])} is not finite"

    rules = [(read["backing_track_position"][1],
              lambda i: "required field backing_track_position missing")]
    for key in map(_KEYS.get, _SCALAR_FIELDS):
        rules += number_rules(key, key)
        if _COLUMNS[key] in _INTEGER_FIELDS:
            column = read[key][0]
            rules.append((np.isfinite(column) & (column != np.floor(column)),
                          lambda i, key=key: f"{key} must be an integer, got {body[i][key]!r}"))
    for part, label, keys in _KEYPOINT_KEYS:
        rules.append((_incomplete([read[key][1] for key in keys]),
                      lambda i, part=part: f"incomplete keypoint for {part}"))
        for key in keys:
            rules += number_rules(key, label)
    if unknown:
        rules.append((np.logical_or.reduce([not_finite[key] for key in unknown]), extras_message))
    rules.append((np.array([not isinstance(obj.get("session_id"), (str, type(None)))
                            for obj in body], dtype=bool),
                  lambda i: f"session_id is not a string: {body[i]['session_id']!r}"))
    position = read["backing_track_position"][0]
    rules.append((_not_increasing(position),
                  lambda i: f"backing_track_position {float(position[i])!r} not strictly "
                            f"increasing (previous {float(position[i - 1])!r})"))
    return rules


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

    The onset lists are arrays; they and the scalars hold finite numbers.

    Raises:
        MalformedDocument: Bad JSON, a ``NaN``/``Infinity`` literal, or a
            missing or mistyped field, which the message names.
        InvariantError: No beat, a tempo, duration or sample rate not above
            zero, onset lists not strictly increasing, or a bar time that is
            not on a beat (raised from BeatGrid construction).
    """
    obj = _decode(data)
    if not isinstance(obj, dict):
        raise MalformedDocument("beat grid document is not an object")
    fields, scalars = {}, ("tempo_bpm", "duration_s", "audio_sample_rate_hz")
    for key in ("beats_s", "bars_s", *scalars):  # an absent field reads as null
        values = [obj.get(key)] if key in scalars else obj.get(key)
        if not isinstance(values, list):
            raise MalformedDocument(f"beat grid field {key} is not an array: {values!r}")
        fields[key] = _float_column(values)[0]
        bad = np.flatnonzero(~np.isfinite(fields[key]))
        if bad.size:
            raise MalformedDocument(f"beat grid field {key} is not a finite number: "
                                    f"{values[bad[0]]!r}")
    tempo, duration, rate = (float(fields[key][0]) for key in scalars)
    if not rate.is_integer():
        raise MalformedDocument(f"beat grid field audio_sample_rate_hz must be an integer, "
                                f"got {rate!r}")
    return BeatGrid(beat_times=tuple(fields["beats_s"].tolist()),
                    bar_times=tuple(fields["bars_s"].tolist()), tempo_bpm=tempo,
                    duration_s=duration, audio_sample_rate_hz=int(rate))


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

    Iterating yields every accepted Session.  Files that fail to parse are
    skipped with the reason rather than aborting the walk; exploratory
    corpora routinely contain a bad file.  Each file's id is learned as in
    :func:`find_session`.  Duplicate session ids keep the first file: a
    later one is skipped as a duplicate before it is decoded, even when the
    rest of it is malformed; any other file is parsed once.  The directory
    is listed on construction, so a missing one raises there.

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
                file_id, rows = _file_id(path)
                if isinstance(file_id, str) and file_id in seen:  # a list id is unhashable
                    self._skipped.append((str(path), f"duplicate session_id {file_id!r}"))
                    continue
                session = parse_session_file(rows if rows is not None else path.read_bytes(),
                                             path.stem)
            except MusickingError as exc:
                self._skipped.append((str(path), str(exc)))
                continue
            seen.add(session.session_id)
            self._entries.append(ManifestEntry(session.session_id, str(path), len(session)))
            yield session

    def manifest(self) -> DatasetManifest:
        """Sessions accepted and files skipped so far; entries sorted by id."""
        entries = sorted(self._entries, key=lambda e: e.session_id)
        return DatasetManifest(entries=tuple(entries), skipped=tuple(self._skipped))


def discover_dataset(directory: str | Path) -> DatasetManifest:
    """Scan a directory for session files; see :class:`DatasetWalk` (a file
    whose id is already accepted is a duplicate, undecoded even if malformed).

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
    return _session_id([row], path.stem)[0]


def _file_id(path: Path) -> tuple:
    """The file's session id as ``parse_session_file`` reads it, and the rows
    when the whole file had to be decoded (MalformedDocument if it fails)."""
    file_id = _first_record_id(path)
    if file_id is not None:
        return file_id, None
    rows = _decode_rows(path.read_bytes())
    return _session_id(rows, path.stem)[0], rows


def find_session(directory: str | Path, session_id: str) -> Session | None:
    """The session ``discover_dataset`` would list under ``session_id``.

    Files are tried in name order.  Each file's id is read from its first
    record, from a bounded prefix of the file; only when that record has no
    id (or is not an object, or does not fit the prefix) is the whole file
    decoded to read the id as ``parse_session_file`` does, and then those
    rows are parsed.  :class:`DatasetWalk` learns ids the same way.  Only a
    file whose id matches is fully parsed, and each file is decoded at most
    once.  The first such file that parses wins; one that fails is passed
    over, as the walk skips it.  Returns None when no file holds the id.

    Raises:
        OSError: Directory missing or unreadable.
    """
    for path in _session_paths(directory):
        try:
            file_id, rows = _file_id(path)
            if file_id == session_id:
                return parse_session_file(rows if rows is not None else path.read_bytes(), path.stem)
        except MusickingError:
            continue
    return None
