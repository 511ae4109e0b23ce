import contextlib
import dataclasses
import io
import json
import logging
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from helpers import oracle_parse_error, partial_keypoints, performance_session, reference_walk
from musicking_lab import ingest
from musicking_lab.cli import main
from musicking_lab.errors import InvariantError, MalformedDocument, MusickingError, SchemaError
from musicking_lab.ingest import (
    discover_dataset,
    find_session,
    load_bundled_beat_grid,
    load_session,
    parse_beat_grid,
    parse_session_file,
    serialize_session,
)
from musicking_lab.model import (
    SKELETON_PARTS,
    Keypoint,
    Record,
    Session,
    canonical_columns,
    column_values,
)


def doc(rows) -> str:
    return json.dumps(rows)


class TestParseSessionFile:
    def test_three_records_in_order(self):
        s = parse_session_file(doc([
            {"backing_track_position": 0, "hardware_bitalino_eda": 400},
            {"backing_track_position": 130, "hardware_bitalino_eda": 410},
            {"backing_track_position": 260, "hardware_bitalino_eda": 395},
        ]))
        assert len(s.records) == 3
        assert [r.eda for r in s.records] == [400, 410, 395]
        assert [r.backing_track_position for r in s.records] == [0.0, 130.0, 260.0]

    def test_missing_position_reports_row(self):
        with pytest.raises(SchemaError) as excinfo:
            parse_session_file(doc([
                {"backing_track_position": 0},
                {"backing_track_position": 130},
                {"flow": 4},
            ]))
        assert excinfo.value.row == 2

    def test_extra_column_preserved(self):
        s = parse_session_file(doc([{"backing_track_position": 0, "foo": "bar"}]))
        assert s.records[0].extras == {"foo": "bar"}

    def test_each_record_keeps_its_extras_key_order(self):
        rows = [{"backing_track_position": 0, "b": 1, "a": 2},
                {"backing_track_position": 1, "a": 3, "b": 4}]
        s = parse_session_file(json.dumps(rows))
        assert [list(r.extras) for r in s.records] == [["b", "a"], ["a", "b"]]
        written = json.loads(serialize_session(s))
        assert [[k for k in row if k in ("a", "b")] for row in written] == [["b", "a"], ["a", "b"]]
        rebuilt = Session("s", s.records)
        assert [list(r.extras) for r in rebuilt.records] == [["b", "a"], ["a", "b"]]

    def test_not_json(self):
        with pytest.raises(MalformedDocument):
            parse_session_file(b"definitely: not json")

    def test_not_an_array(self):
        with pytest.raises(MalformedDocument):
            parse_session_file(doc({"backing_track_position": 0}))

    def test_non_integer_flow_rejected(self):
        with pytest.raises(SchemaError) as excinfo:
            parse_session_file(doc([{"backing_track_position": 0, "flow": 2.5}]))
        assert excinfo.value.row == 0

    def test_integer_valued_float_accepted(self):
        s = parse_session_file(doc([{"backing_track_position": 0, "flow": 3.0}]))
        assert s.records[0].flow == 3

    def test_session_id_from_records(self):
        s = parse_session_file(doc([{"backing_track_position": 0, "session_id": "abc"}]))
        assert s.session_id == "abc"

    def test_fallback_session_id(self):
        s = parse_session_file(doc([{"backing_track_position": 0}]), "stem")
        assert s.session_id == "stem"

    @pytest.mark.parametrize("session_id", ["../escaped/x", "a/b", "a\\b", "nul\0", ".", ".."])
    def test_session_id_that_is_not_a_file_name_rejected(self, session_id):
        rows = [{"backing_track_position": 0, "session_id": None},
                {"backing_track_position": 130, "session_id": session_id}]
        with pytest.raises(SchemaError) as excinfo:
            parse_session_file(doc(rows))
        assert str(excinfo.value) == f"row 1: session_id {session_id!r} is not a file name"

    def test_fallback_that_is_not_a_file_name_rejected(self):
        with pytest.raises(SchemaError) as excinfo:
            parse_session_file(doc([{"backing_track_position": 0, "session_id": ""}]), "..")
        assert excinfo.value.row is None
        assert str(excinfo.value) == "session_id '..' is not a file name"

    @pytest.mark.parametrize("session_id", ["...", ".x", "a..b", "a b"])
    def test_dotted_file_names_accepted(self, session_id):
        rows = [{"backing_track_position": 0, "session_id": session_id}]
        assert parse_session_file(doc(rows)).session_id == session_id

    def test_incomplete_keypoint_rejected(self):
        with pytest.raises(SchemaError, match="incomplete keypoint"):
            parse_session_file(doc([{
                "backing_track_position": 0,
                "hardware_skeleton_nose_x": 10.0,
                "hardware_skeleton_nose_y": 20.0,
            }]))

    def test_full_keypoint_parsed(self):
        s = parse_session_file(doc([{
            "backing_track_position": 0,
            "hardware_skeleton_nose_x": 10,
            "hardware_skeleton_nose_y": 20,
            "hardware_skeleton_nose_confidence": 0.5,
        }]))
        assert s.records[0].keypoints["nose"] == Keypoint(10.0, 20.0, 0.5)


# Strategy for valid sessions: monotone positions, sentinel-consistent
# keypoints, integer physiology, JSON-safe extras.
_coord = st.floats(0, 640, allow_nan=False, allow_infinity=False)


@st.composite
def keypoints_st(draw):
    parts = draw(st.lists(st.sampled_from(SKELETON_PARTS), unique=True, max_size=3))
    result = {}
    for part in parts:
        if draw(st.booleans()):
            result[part] = Keypoint(-1.0, -1.0, 0.0)
        else:
            result[part] = Keypoint(draw(_coord), draw(_coord),
                                    draw(st.floats(0, 1, allow_nan=False)))
    return result


@st.composite
def sessions_st(draw):
    n = draw(st.integers(1, 6))
    steps = draw(st.lists(st.floats(0.5, 400, allow_nan=False), min_size=n, max_size=n))
    position = 0.0
    records = []
    for step in steps:
        position += step
        records.append(Record(
            backing_track_position=position,
            sync_delta=draw(st.none() | st.floats(-1e5, 1e5, allow_nan=False)),
            chorus_id=draw(st.none() | st.sampled_from([0, 1, 2, 3, 4, 5, 999])),
            flow=draw(st.none() | st.integers(0, 100)),
            eda=draw(st.none() | st.integers(0, 1024)),
            eeg_t3=draw(st.none() | st.integers(0, 10 ** 6)),
            eeg_t4=draw(st.none() | st.integers(0, 10 ** 6)),
            eeg_o1=draw(st.none() | st.integers(0, 10 ** 6)),
            eeg_o2=draw(st.none() | st.integers(0, 10 ** 6)),
            keypoints=draw(keypoints_st()),
            extras={f"x_{k}": v for k, v in draw(st.dictionaries(
                st.text("ab", min_size=1, max_size=3),
                st.integers(-5, 5) | st.text("xyz", max_size=4) | st.none(),
                max_size=2)).items()},
        ))
    session_id = draw(st.text("abcdef0123456789", min_size=1, max_size=10))
    return Session(session_id=session_id, records=tuple(records))


class TestRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(sessions_st(), st.data())
    def test_parse_serialize_identity(self, session, data):
        # One record gets values across the whole finite range, an integral
        # float in an integer field, or a keypoint that lacks an axis, which
        # Session refuses: ingest would refuse the document it serializes to.
        records = list(session.records)
        i = data.draw(st.integers(0, len(records) - 1))
        records[i] = dataclasses.replace(
            records[i], sync_delta=data.draw(st.none() | st.floats(allow_nan=False,
                                                                   allow_infinity=False)),
            flow=data.draw(st.none() | st.integers(0, 2 ** 53).map(float) | st.integers(0, 2 ** 53)))
        partial = data.draw(st.none() | partial_keypoints(_coord, st.floats(0, 1)))
        if partial is not None:
            records[i] = dataclasses.replace(records[i], keypoints={"nose": partial})
            with pytest.raises(InvariantError, match=f"record {i}: nose: incomplete keypoint"):
                Session(session.session_id, records)
            return
        session = Session(session.session_id, records)
        text = serialize_session(session)
        parsed = parse_session_file(text)
        assert parsed == session
        assert serialize_session(parsed) == text

    def test_parsing_preserves_order(self, grid):
        session = performance_session(grid, seed=5)
        parsed = parse_session_file(serialize_session(session))
        assert [r.backing_track_position for r in parsed.records] == \
               [r.backing_track_position for r in session.records]

    def test_every_canonical_key(self):
        rows = [{"session_id": "all", **{key: 100 * row + i
                                         for i, key in enumerate(canonical_columns())}}
                for row in range(3)]
        session = parse_session_file(doc(rows))
        assert [r.extras for r in session.records] == [{}, {}, {}]
        for key in canonical_columns():
            assert None not in column_values(session, key), key
        text = serialize_session(session)
        assert [list(row) for row in json.loads(text)] == [["session_id", *canonical_columns()]] * 3
        assert parse_session_file(text) == session
        assert serialize_session(parse_session_file(text)) == text


class TestSerializeRefusesWhatTheParserRefuses:
    @pytest.mark.parametrize("records, error, message", [
        ([Record(0.0, flow=math.inf)], MalformedDocument, "non-finite literal Infinity"),
        ([Record(0.0), Record(0.0)], SchemaError, "row 1: backing_track_position 0.0 not strictly"),
        ([Record(0.0, flow=1.5)], SchemaError, "row 0: flow must be an integer"),
    ], ids=["infinite_flow", "repeated_clock", "fractional_flow"])
    def test_refused(self, records, error, message):
        with pytest.raises(error, match=message):
            serialize_session(Session("s", records))


class TestParseBeatGrid:
    def test_bundled_fixture_values(self):
        g = load_bundled_beat_grid()
        assert g.tempo_bpm == 60.09
        assert g.duration_s == 331.5
        assert g.audio_sample_rate_hz == 22050
        assert len(g.bar_times) == 81
        assert len(g.beat_times) == 323

    def test_bar_count_matches_cluster_total(self):
        # 38 + 30 + 13 bars across the three reported clusters
        assert load_bundled_beat_grid().n_bars == 38 + 30 + 13

    def test_six_decimal_precision_preserved(self):
        g = load_bundled_beat_grid()
        assert g.beat_times[0] == 0.55727891
        assert g.bar_times[-1] == 320.55147392

    def test_bar_not_on_beat(self):
        payload = {"tempo_bpm": 60.0, "duration_s": 2.0, "audio_sample_rate_hz": 22050,
                   "beats_s": [0.5, 1.5], "bars_s": [1.0]}
        with pytest.raises(InvariantError, match="bar time not in beats"):
            parse_beat_grid(json.dumps(payload))

    def test_non_monotone_rejected(self):
        payload = {"tempo_bpm": 60.0, "duration_s": 2.0, "audio_sample_rate_hz": 22050,
                   "beats_s": [0.5, 0.4], "bars_s": [0.5]}
        with pytest.raises(InvariantError):
            parse_beat_grid(json.dumps(payload))

    def test_missing_key(self):
        with pytest.raises(MalformedDocument):
            parse_beat_grid(json.dumps({"beats_s": [0.0]}))

    def test_garbage(self):
        with pytest.raises(MalformedDocument):
            parse_beat_grid(b"[1,2")

    @pytest.mark.parametrize("field, literal", [
        ("audio_sample_rate_hz", "1e400"),
        ("tempo_bpm", "-1e999"),
        ("duration_s", "null"),
        ("tempo_bpm", '"60"'),
        ("beats_s", '"0123"'),
        ("beats_s", "[false, true]"),
        ("bars_s", "[0.5, null]"),
        ("audio_sample_rate_hz", "44100.7"),
    ])
    def test_field_that_is_not_a_finite_number_named(self, field, literal):
        payload = {"tempo_bpm": 60.0, "duration_s": 2.0, "audio_sample_rate_hz": 22050,
                   "beats_s": [0.5, 1.5], "bars_s": [0.5], field: "HERE"}
        with pytest.raises(MalformedDocument, match=f"beat grid field {field} "):
            parse_beat_grid(json.dumps(payload).replace('"HERE"', literal))

    @pytest.mark.parametrize("text, message", [
        ('{"duration_s": NaN}', "non-finite literal NaN"),
        ("[" * 100_000 + "]" * 100_000, "not valid JSON"),
        ('{"duration_s": 1' + "0" * 5000 + "}", "not valid JSON"),
        ("[0.5, 1.5]", "beat grid document is not an object"),
    ], ids=["NaN literal", "nested too deeply", "integer too long", "top-level array"])
    def test_read_with_the_session_decoder(self, text, message):
        with pytest.raises(MalformedDocument, match=message):
            parse_beat_grid(text)


def _write_rows(path, session_id, n=3, **extra):
    rows = [{"backing_track_position": i * 130.0, "session_id": session_id,
             "hardware_bitalino_eda": 400 + i, **extra} for i in range(n)]
    path.write_text(json.dumps(rows))


def _drawn_document(kind: str, session_id: str, data) -> str:
    """A three-row session document of one kind: valid, truncated at a drawn
    point, with a NaN literal, or with row 0's id null, empty or a list, or
    with a scalar row before the rows."""
    rows = [{"session_id": session_id, "backing_track_position": 130.0 * i,
             "hardware_bitalino_eda": 400 + i} for i in range(3)]
    if kind in ("null_id", "empty_id", "list_id"):
        rows[0]["session_id"] = {"null_id": None, "empty_id": "", "list_id": [session_id]}[kind]
    if kind == "row_0_scalar":
        rows.insert(0, 5)
    text = doc(rows)
    if kind == "truncated":
        text = text[:data.draw(st.integers(1, len(text) - 1))]
    return text.replace("402", "NaN") if kind == "nan" else text


class TestDiscoverDataset:
    def test_twenty_five_files(self, tmp_path):
        for i in range(25):
            _write_rows(tmp_path / f"s{i:02d}.json", f"s{i:02d}")
        manifest = discover_dataset(tmp_path)
        assert len(manifest.entries) == 25
        assert manifest.skipped == ()
        assert manifest.session_ids() == sorted(manifest.session_ids())

    def test_empty_dir(self, tmp_path):
        manifest = discover_dataset(tmp_path)
        assert manifest.entries == ()
        assert manifest.skipped == ()

    def test_corrupt_file_skipped(self, tmp_path):
        _write_rows(tmp_path / "a.json", "a")
        _write_rows(tmp_path / "b.json", "b")
        (tmp_path / "bad.json").write_text("{broken")
        manifest = discover_dataset(tmp_path)
        assert len(manifest.entries) == 2
        assert len(manifest.skipped) == 1
        assert manifest.skipped[0][0].endswith("bad.json")

    def test_duplicate_session_id_skipped(self, tmp_path):
        _write_rows(tmp_path / "a.json", "same")
        _write_rows(tmp_path / "b.json", "same")
        manifest = discover_dataset(tmp_path)
        assert len(manifest.entries) == 1
        assert "duplicate" in manifest.skipped[0][1]

    def test_missing_directory(self, tmp_path):
        with pytest.raises(OSError):
            discover_dataset(tmp_path / "nope")

    def test_id_that_is_not_a_file_name_skipped(self, tmp_path):
        _write_rows(tmp_path / "a.json", "../escaped/x")
        _write_rows(tmp_path / "b.json", "b")
        manifest = discover_dataset(tmp_path)
        assert manifest.session_ids() == ["b"]
        assert manifest.skipped == ((str(tmp_path / "a.json"),
                                     "row 0: session_id '../escaped/x' is not a file name"),)

    def test_record_counts(self, tmp_path):
        _write_rows(tmp_path / "a.json", "a", n=7)
        manifest = discover_dataset(tmp_path)
        assert manifest.entries[0].record_count == 7

    @pytest.mark.parametrize("damage", ["truncated", "non-integer flow", "clock"])
    def test_broken_duplicate_skipped_undecoded(self, tmp_path, monkeypatch, damage):
        _write_rows(tmp_path / "a.json", "same")
        extra = {"flow": 2.5} if damage == "non-integer flow" else {}
        _write_rows(tmp_path / "b.json", "same", n=9, **extra)
        text = (tmp_path / "b.json").read_text()
        if damage == "truncated":
            text = text[:len(text) // 2]  # row 0 is whole
        if damage == "clock":
            text = text.replace("1040.0", "0.0")
        (tmp_path / "b.json").write_text(text)
        with pytest.raises(MusickingError):
            load_session(tmp_path / "b.json")
        decoded = _count_decodes(monkeypatch)
        manifest = discover_dataset(tmp_path)
        assert manifest.session_ids() == ["same"]
        # Row 0 names an accepted id, so b is a duplicate before it is decoded.
        assert manifest.skipped == ((str(tmp_path / "b.json"), "duplicate session_id 'same'"),)
        assert decoded == [len((tmp_path / "a.json").read_bytes())]
        # The reference walk, which parses every file first, reports the break.
        assert reference_walk(tmp_path).skipped[0][1] != manifest.skipped[0][1]

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["valid", "truncated", "copy", "nan", "null_id",
                                               "empty_id", "row_0_scalar", "list_id"]),
                              st.sampled_from(["a", "b", "s1"])),
                    max_size=6), st.data())
    def test_same_manifest_as_the_reference_walk(self, files, data):
        with tempfile.TemporaryDirectory() as name:
            directory = Path(name)
            text = None
            for stem, (kind, session_id) in zip("abcdef", files):
                if kind != "copy" or text is None:  # a copy repeats the file before it
                    text = _drawn_document(kind, session_id, data)
                (directory / f"{stem}.json").write_text(text)
            manifest, expected = discover_dataset(directory), reference_walk(directory)
            assert manifest.entries == expected.entries
            assert [path for path, _ in manifest.skipped] == [path for path, _ in expected.skipped]
            duplicates = {f"duplicate session_id {i!r}" for i in manifest.session_ids()}
            for (path, reason), (_, old_reason) in zip(manifest.skipped, expected.skipped):
                if reason != old_reason:  # only a duplicate id that also fails to parse
                    assert reason in duplicates and old_reason not in duplicates
                    with pytest.raises(MusickingError):
                        load_session(path)


class TestInputContract:
    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_literal_rejected(self, literal):
        with pytest.raises(MalformedDocument, match=literal):
            parse_session_file(f'[{{"backing_track_position": 0, "flow": {literal}}}]')

    @pytest.mark.parametrize("field", ["backing_track_position", "sync_delta",
                                       "hardware_bitalino_eda", "hardware_skeleton_nose_x",
                                       "extra_column"])
    @pytest.mark.parametrize("literal", ["1e400", "-1e999", "1" + "0" * 400],
                             ids=["1e400", "-1e999", "10**400"])
    def test_overflowing_number_rejected(self, field, literal):
        rows = [{"backing_track_position": 0},
                {"backing_track_position": 130, "hardware_skeleton_nose_x": 1,
                 "hardware_skeleton_nose_y": 1, "hardware_skeleton_nose_confidence": 1,
                 field: "HERE"}]
        with pytest.raises(SchemaError, match="not finite") as excinfo:
            parse_session_file(doc(rows).replace('"HERE"', literal))
        assert excinfo.value.row == 1

    @pytest.mark.parametrize("positions", [[0, 130, 130], [0, 130, 120]])
    def test_clock_not_strictly_increasing(self, positions):
        with pytest.raises(SchemaError, match="not strictly increasing") as excinfo:
            parse_session_file(doc([{"backing_track_position": p} for p in positions]))
        assert excinfo.value.row == 2

    @pytest.mark.parametrize("text", ["[" * 100_000 + "]" * 100_000, "[1" + "0" * 5000 + "]"],
                             ids=["nested too deeply", "integer too long"])
    def test_undecodable_json_rejected(self, text):
        with pytest.raises(MalformedDocument):
            parse_session_file(text)


def _run_cli(argv) -> tuple[int, str]:
    """Exit code of ``cli.main(argv)`` and everything it logged or wrote to stderr."""
    stream = io.StringIO()
    handler = logging.StreamHandler(stream)
    logger = logging.getLogger("musicking_lab")
    logger.addHandler(handler)
    try:
        with contextlib.redirect_stderr(stream):
            code = main(argv)
    finally:
        logger.removeHandler(handler)
    return code, stream.getvalue()


@pytest.fixture
def parse_calls(monkeypatch):
    """Names of the files ``parse_session_file`` is called on, in call order."""
    calls = []
    real = ingest.parse_session_file

    def counting(data, fallback_session_id=""):
        calls.append(fallback_session_id)
        return real(data, fallback_session_id)

    monkeypatch.setattr(ingest, "parse_session_file", counting)
    return calls


def _count_decodes(monkeypatch) -> list[int]:
    """The length of each document ``ingest._decode_rows`` is called on."""
    calls = []
    real = ingest._decode_rows

    def counting(data):
        calls.append(len(data))
        return real(data)

    monkeypatch.setattr(ingest, "_decode_rows", counting)
    return calls


def _decoded_files(monkeypatch, directory) -> list[str]:
    """The stem of the file each ``ingest._decode_rows`` call decodes, known
    by its bytes; a byte copy reads as the first file of its content."""
    stems = {}
    for path in sorted(directory.iterdir()):
        stems.setdefault(path.read_bytes(), path.stem)
    calls = []
    real = ingest._decode_rows

    def counting(data):
        calls.append(stems[data])
        return real(data)

    monkeypatch.setattr(ingest, "_decode_rows", counting)
    return calls


def _split_by_the_prefix(head: str, tail: str) -> bytes:
    """The ASCII ``head``, a string of two-byte characters longer than the
    lookup's prefix, then ``tail``; a space after the first comma, when
    needed, makes the prefix end inside a character."""
    if (ingest._PROBE_BYTES - len(head)) % 2 == 0:
        head = head.replace(",", ", ", 1)
    data = (head + "\u00e9" * ingest._PROBE_BYTES + tail).encode()
    assert data[ingest._PROBE_BYTES - 1:ingest._PROBE_BYTES + 1].decode() == "\u00e9"
    return data


class TestParseOnce:
    @pytest.fixture
    def corpus(self, tmp_path, grid):
        data = tmp_path / "data"
        data.mkdir()
        for i, seed in enumerate((1, 2, 3)):
            session = performance_session(grid, seed=seed, session_id=f"s{seed}", tail_count=4)
            (data / f"f{2 - i}.json").write_text(serialize_session(session))
        (data / "f3.json").write_text("{broken")
        (data / "f4.json").write_text((data / "f0.json").read_text())  # duplicate id
        return data, tmp_path / "out"

    @pytest.mark.parametrize("command,exit_code", [("validate", 2), ("compare", 0)])
    def test_every_file_parsed_once(self, corpus, parse_calls, monkeypatch, command, exit_code):
        data, out = corpus
        decoded = _decoded_files(monkeypatch, data)
        assert main([command, "--dataset", str(data), "--out", str(out)]) == exit_code
        # f4 is a byte copy of f0: its first record names an accepted id, so
        # it is skipped undecoded (a decode of it would read as a second f0).
        assert sorted(parse_calls) == ["f0", "f1", "f2"]
        # The broken f3 is decoded once, to learn its id, and refused there.
        assert sorted(decoded) == ["f0", "f1", "f2", "f3"]

    @pytest.mark.parametrize("command", ["analyze", "cluster"])
    def test_only_the_session_parsed(self, corpus, parse_calls, command):
        data, out = corpus
        assert main([command, "--dataset", str(data), "--out", str(out),
                     "--session", "s2"]) == 0
        assert parse_calls == ["f1"]


class TestSessionLookup:
    def test_earlier_file_with_the_id_wins(self, tmp_path):
        _write_rows(tmp_path / "a.json", "same", n=3)
        _write_rows(tmp_path / "b.json", "same", n=5)
        assert len(find_session(tmp_path, "same").records) == 3
        assert discover_dataset(tmp_path).entries[0].path.endswith("a.json")

    def test_earlier_file_that_fails_is_passed_over(self, tmp_path, parse_calls):
        _write_rows(tmp_path / "a.json", "same", n=3, flow=2.5)
        _write_rows(tmp_path / "b.json", "same", n=5)
        _write_rows(tmp_path / "c.json", "same", n=7)
        assert len(find_session(tmp_path, "same").records) == 5
        assert parse_calls == ["a", "b"]
        assert discover_dataset(tmp_path).entries[0].path.endswith("b.json")

    @pytest.mark.parametrize("session_id", ["../x", "nul\0"])
    def test_id_that_is_not_a_file_name_passed_over(self, tmp_path, session_id):
        _write_rows(tmp_path / "a.json", session_id)
        _write_rows(tmp_path / "b.json", "b")
        assert find_session(tmp_path, session_id) is None

    def test_file_stem_is_the_fallback_id(self, tmp_path):
        (tmp_path / "stem.json").write_text(doc([{"backing_track_position": 0}]))
        assert find_session(tmp_path, "stem").session_id == "stem"

    def test_unknown_id_not_found(self, tmp_path):
        _write_rows(tmp_path / "a.json", "a")
        code, log_text = _run_cli(["analyze", "--dataset", str(tmp_path),
                                   "--out", str(tmp_path / "out"), "--session", "nope"])
        assert code == 1
        assert "not found" in log_text

    @pytest.mark.parametrize("row_0", [{"session_id": None}, {}], ids=["null", "absent"])
    def test_id_after_row_0_found_through_the_full_decode(self, tmp_path, parse_calls, row_0):
        rows = [{"backing_track_position": 0, **row_0},
                {"backing_track_position": 130, "session_id": "same"}]
        (tmp_path / "a.json").write_text(doc(rows))
        _write_rows(tmp_path / "b.json", "same")
        session = find_session(tmp_path, "same")
        assert parse_calls == ["a"]
        assert session == load_session(tmp_path / "a.json")

    def test_id_after_row_0_decoded_once(self, tmp_path, monkeypatch):
        rows = [{"backing_track_position": 0, "session_id": None},
                {"backing_track_position": 130, "session_id": "same"}]
        (tmp_path / "a.json").write_text(doc(rows))
        expected = load_session(tmp_path / "a.json")
        decoded = _count_decodes(monkeypatch)
        assert find_session(tmp_path, "same") == expected
        assert decoded == [len(doc(rows))]

    def test_empty_id_on_row_0_falls_back_to_the_stem(self, tmp_path):
        rows = [{"backing_track_position": 0, "session_id": ""},
                {"backing_track_position": 130, "session_id": "other"}]
        (tmp_path / "stem.json").write_text(doc(rows))
        assert find_session(tmp_path, "stem").session_id == "stem"
        assert find_session(tmp_path, "other") is None

    def test_truncated_file_naming_the_id_is_passed_over(self, tmp_path, parse_calls):
        _write_rows(tmp_path / "a.json", "same", n=9)
        text = (tmp_path / "a.json").read_text()
        (tmp_path / "a.json").write_text(text[:len(text) // 2])  # row 0 is whole
        _write_rows(tmp_path / "b.json", "same", n=5)
        _write_rows(tmp_path / "c.json", "same", n=7)
        assert len(find_session(tmp_path, "same")) == 5
        # Row 0 names the id, so the truncated file is parsed, and refused.
        assert parse_calls == ["a", "b"]

    @pytest.mark.parametrize("damage", ["truncate", "nan"])
    def test_other_broken_file_is_never_decoded(self, tmp_path, monkeypatch, damage):
        _write_rows(tmp_path / "a.json", "other", n=9)
        text = (tmp_path / "a.json").read_text()
        text = text[:len(text) // 2] if damage == "truncate" else \
            text.replace('"hardware_bitalino_eda": 405', '"hardware_bitalino_eda": NaN')
        (tmp_path / "a.json").write_text(text)
        _write_rows(tmp_path / "b.json", "same")
        decoded = _count_decodes(monkeypatch)
        assert find_session(tmp_path, "absent") is None
        assert decoded == []
        assert len(find_session(tmp_path, "same")) == 3
        assert decoded == [len((tmp_path / "b.json").read_bytes())]  # the match, once

    def test_row_0_longer_than_the_prefix(self, tmp_path, monkeypatch):
        data = _split_by_the_prefix('[{"session_id": "long", "backing_track_position": 0, "note": "',
                                    '"}, {"backing_track_position": 130}]')
        (tmp_path / "a.json").write_bytes(data)
        _write_rows(tmp_path / "b.json", "long")
        decoded = _count_decodes(monkeypatch)
        session = find_session(tmp_path, "long")
        assert decoded == [len(data)]  # the whole file, once: for the id, then parsed
        assert session == load_session(tmp_path / "a.json")
        assert session.records[0].extras["note"] == "\u00e9" * ingest._PROBE_BYTES

    def test_prefix_ending_inside_a_character_after_row_0(self, tmp_path, monkeypatch):
        data = _split_by_the_prefix('[{"session_id": "other", "backing_track_position": 0}, {"note": "',
                                    '", "backing_track_position": 130}]')
        (tmp_path / "a.json").write_bytes(data)
        expected = load_session(tmp_path / "a.json")
        decoded = _count_decodes(monkeypatch)
        assert find_session(tmp_path, "other") == expected
        assert find_session(tmp_path, "absent") is None
        assert decoded == [len(data)]  # the parse alone

    def test_leading_whitespace_accepted(self, tmp_path, monkeypatch, parse_calls):
        _write_rows(tmp_path / "a.json", "same")
        text = (tmp_path / "a.json").read_text()
        assert text.startswith("[{")
        (tmp_path / "a.json").write_text(" \t\r\n[ \n\t\r" + text[1:])
        decoded = _count_decodes(monkeypatch)
        assert len(find_session(tmp_path, "same")) == 3
        assert len(decoded) == 1 and parse_calls == ["a"]

    @pytest.mark.parametrize("text", [
        "\ufeff" + doc([{"session_id": "x", "backing_track_position": 0}]),
        "\f" + doc([{"session_id": "x", "backing_track_position": 0}]),
        doc({"session_id": "x", "backing_track_position": 0}),
        "{broken",
        doc([5, {"session_id": "x", "backing_track_position": 0}]),
    ], ids=["bom", "form feed", "top-level object", "broken", "row 0 not an object"])
    def test_file_ingest_refuses_is_passed_over(self, tmp_path, text):
        (tmp_path / "x.json").write_bytes(text.encode())
        assert find_session(tmp_path, "x") is None
        manifest = discover_dataset(tmp_path)
        assert manifest.entries == ()
        assert [path for path, _ in manifest.skipped] == [str(tmp_path / "x.json")]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["valid", "truncated", "null_id", "empty_id",
                                               "no_id", "nan", "row_0_scalar"]),
                              st.sampled_from(["a", "b", "s1", "s2"])),
                    max_size=6), st.data())
    def test_same_session_as_the_walk_lists(self, files, data):
        with tempfile.TemporaryDirectory() as name:
            directory = Path(name)
            for stem, (kind, session_id) in zip("abcdef", files):
                rows = [{"session_id": session_id, "backing_track_position": 130.0 * i,
                         "hardware_bitalino_eda": 400 + i} for i in range(3)]
                if kind in ("null_id", "no_id"):
                    rows[0]["session_id"] = None
                if kind == "no_id":
                    rows = [{k: v for k, v in row.items() if k != "session_id"} for row in rows]
                if kind == "empty_id":
                    rows[0]["session_id"] = ""
                if kind == "row_0_scalar":
                    rows.insert(0, 5)
                text = doc(rows)
                if kind == "truncated":
                    text = text[:data.draw(st.integers(1, len(text) - 1))]
                if kind == "nan":
                    text = text.replace("402", "NaN")
                (directory / f"{stem}.json").write_text(text)
            manifest = discover_dataset(directory)
            paths = {entry.session_id: entry.path for entry in manifest.entries}
            for session_id in {*paths, *"abcdef", "s1", "s2", "absent"}:
                expected = load_session(paths[session_id]) if session_id in paths else None
                assert find_session(directory, session_id) == expected, session_id

    def test_nan_clock(self, tmp_path):
        # A NaN in the master clock is rejected at ingest and never reaches analysis.
        data = tmp_path / "data"
        data.mkdir()
        _write_rows(data / "a.json", "a")
        _write_rows(data / "nan.json", "nan", n=20, sync_chorus_id=1)
        text = (data / "nan.json").read_text()
        (data / "nan.json").write_text(text.replace("1300.0", "NaN"))
        argv = ["--dataset", str(data), "--out", str(tmp_path / "out")]
        code, log_text = _run_cli(["analyze", *argv, "--session", "nan"])
        assert code == 1
        assert "Traceback" not in log_text and len(log_text.strip().splitlines()) == 1
        assert _run_cli(["validate", *argv])[0] == 2
        summary = json.loads((tmp_path / "out" / "validate" / "summary.json").read_text())
        assert [path for path, _ in summary["skipped"]] == [str(data / "nan.json")]


_BAD_VALUES = ["NaN", "Infinity", "-Infinity", "1e400", "-1e999", "1" + "0" * 400,
               '"text"', "true", "[]", "{}", "2.5"]


@st.composite
def malformed_documents(draw):
    """A small valid session document with one break of the input contract."""
    n = draw(st.integers(1, 5))
    steps = draw(st.lists(st.floats(1.0, 400.0), min_size=n, max_size=n))
    rows, position = [], 0.0
    for step in steps:
        position += step
        rows.append({"session_id": "fz", "backing_track_position": position,
                     "sync_chorus_id": 1, "flow": 3, "hardware_bitalino_eda": 400,
                     "hardware_skeleton_nose_x": 1.0, "hardware_skeleton_nose_y": 2.0,
                     "hardware_skeleton_nose_confidence": 0.5})
    row = draw(st.integers(0, n - 1))
    kind = draw(st.sampled_from(["value", "clock", "no_clock", "keypoint", "row",
                                 "top_level", "truncate"]))
    if kind == "value":
        key = draw(st.sampled_from(sorted(rows[row])))
        if key == "session_id":
            bad = [v for v in _BAD_VALUES if v != '"text"']
        elif key in ("sync_chorus_id", "flow", "hardware_bitalino_eda"):
            bad = _BAD_VALUES
        else:
            bad = [v for v in _BAD_VALUES if v != "2.5"]
        literal = draw(st.sampled_from(bad))
        rows[row][key] = "BAD"
        return doc(rows).replace('"BAD"', literal)
    if kind == "clock":
        if n == 1:
            rows.append(dict(rows[0]))
            row = 1
        elif row == 0:
            row = 1
        rows[row]["backing_track_position"] = rows[row - 1]["backing_track_position"] - \
            draw(st.sampled_from([0.0, 0.5, 1e6]))
        return doc(rows)
    if kind == "no_clock":
        if draw(st.booleans()):
            del rows[row]["backing_track_position"]
        else:
            rows[row]["backing_track_position"] = None
        return doc(rows)
    if kind == "keypoint":
        del rows[row][draw(st.sampled_from(["hardware_skeleton_nose_x",
                                            "hardware_skeleton_nose_confidence"]))]
        return doc(rows)
    if kind == "row":
        rows[row] = draw(st.sampled_from([1, "row", None, [1, 2]]))
        return doc(rows)
    if kind == "top_level":
        return doc({"records": rows})
    text = doc(rows)
    return text[:draw(st.integers(0, len(text) - 1))]


class TestMalformedInputFuzz:
    @settings(max_examples=120, deadline=None)
    @given(malformed_documents())
    def test_clean_exit_without_traceback(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            data = Path(tmp) / "data"
            data.mkdir()
            (data / "fz.json").write_text(text)
            argv = ["--dataset", str(data), "--out", str(Path(tmp) / "out")]
            for command, expected in ((["validate"], 2), (["analyze", "--session", "fz"], 1)):
                code, log_text = _run_cli([*command, *argv])
                assert code in (1, 2)
                assert code == expected
                assert "Traceback" not in log_text
                for line in log_text.splitlines():
                    assert line.startswith(("skipped", "session", "validated"))


class TestFirstFailingRow:
    """The earliest failing row is reported; within a row its own checks
    come before the clock check."""

    @pytest.mark.parametrize("rows, error, message", [
        ([{"backing_track_position": 0}, {"backing_track_position": 130},
          {"backing_track_position": 120},
          {"backing_track_position": 260, "hardware_bitalino_eda": "HUGE"}],
         SchemaError, "row 2: backing_track_position 120.0 not strictly increasing "
                      "(previous 130.0)"),
        ([{"backing_track_position": 0},
          {"backing_track_position": 130, "hardware_skeleton_nose_x": "HUGE",
           "hardware_skeleton_nose_y": 1, "hardware_skeleton_nose_confidence": 1},
          {"backing_track_position": 120}],
         SchemaError, "row 1: hardware_skeleton_nose is not finite"),
        ([{"backing_track_position": 0}, {"backing_track_position": -5, "flow": 2.5}],
         SchemaError, "row 1: flow must be an integer, got 2.5"),
        ([{"backing_track_position": 0}, {"backing_track_position": 0}, 5],
         SchemaError, "row 1: backing_track_position 0.0 not strictly increasing "
                      "(previous 0.0)"),
        ([{"backing_track_position": 0}, [1], {"backing_track_position": -1}],
         MalformedDocument, "row 1: record is not an object"),
        ([{"flow": 3}, {"backing_track_position": 130}],
         SchemaError, "row 0: required field backing_track_position missing"),
        ([{"backing_track_position": 0}, {"backing_track_position": 130, "session_id": 5}],
         SchemaError, "row 1: session_id is not a string: 5"),
        ([{"backing_track_position": 0, "a": 1, "b": 1},
          {"backing_track_position": 1, "b": "HUGE", "a": "HUGE"}],
         SchemaError, "row 1: b is not finite"),
    ], ids=["clock before non-finite", "non-finite before clock", "same row",
            "clock before non-object", "non-object before clock", "no clock in the first row",
            "session id not a string", "extras in the row's own key order"])
    def test_reported_row_and_message(self, rows, error, message):
        with pytest.raises(error) as excinfo:
            parse_session_file(doc(rows).replace('"HUGE"', "1e400"))
        assert str(excinfo.value) == message


_BREAK_LITERALS = ["1e400", "-1e999", "1" + "0" * 400, '"text"', "true", "[]", "{}", "2.5",
                   "null"]
_BREAK_KEYS = ["backing_track_position", "sync_delta", "sync_chorus_id", "flow",
               "hardware_bitalino_eda", "hardware_brainbit_eeg_o2", "hardware_skeleton_nose_x",
               "hardware_skeleton_l_ear_confidence", "session_id", "extra_column",
               "other_extra"]


@st.composite
def documents_with_breaks(draw):
    """A small session document with up to three contract breaks of any
    kind in any rows, as text.  The two extras come in either order in
    each row, and a break may make both non-finite in one row."""
    n = draw(st.integers(1, 6))
    rows, position = [], 0.0
    for step in draw(st.lists(st.floats(1.0, 400.0), min_size=n, max_size=n)):
        position += step
        extras = ["extra_column", "other_extra"]
        if draw(st.booleans()):
            extras.reverse()
        rows.append({"session_id": "fz", "backing_track_position": position, "flow": 3,
                     "hardware_skeleton_nose_x": 1.0, "hardware_skeleton_nose_y": 2.0,
                     "hardware_skeleton_nose_confidence": 0.5, **dict.fromkeys(extras, 1)})
    literals = []
    for _ in range(draw(st.integers(0, 3))):
        row = draw(st.integers(0, n - 1))
        kind = draw(st.sampled_from(["value", "extras", "clock", "drop", "row"]))
        if not isinstance(rows[row], dict):
            continue
        if kind == "value":
            rows[row][draw(st.sampled_from(_BREAK_KEYS))] = f"BREAK{len(literals)}"
            literals.append(draw(st.sampled_from(_BREAK_LITERALS)))
        elif kind == "extras":  # both non-finite: the row's key order names one
            for key in ("extra_column", "other_extra"):
                rows[row][key] = f"BREAK{len(literals)}"
                literals.append(draw(st.sampled_from(_BREAK_LITERALS[:3])))
        elif kind == "clock" and row > 0 and isinstance(rows[row - 1], dict):
            rows[row]["backing_track_position"] = rows[row - 1].get("backing_track_position")
        elif kind == "drop":
            keys = sorted(rows[row])
            rows[row].pop(draw(st.sampled_from(["backing_track_position", *keys]
                                               if "backing_track_position" in keys else keys)))
        elif kind == "row":
            rows[row] = draw(st.sampled_from([1, "row", None, [1, 2]]))
    text = doc(rows)
    for i, literal in enumerate(literals):
        text = text.replace(f'"BREAK{i}"', literal)
    return text


class TestColumnChecksOracle:
    @settings(max_examples=300, deadline=None)
    @given(documents_with_breaks())
    def test_same_error_as_a_row_by_row_scan(self, text):
        expected = oracle_parse_error(json.loads(text))
        if expected is None:
            assert len(parse_session_file(text)) == len(json.loads(text))
            return
        with pytest.raises((MalformedDocument, SchemaError)) as excinfo:
            parse_session_file(text)
        assert (type(excinfo.value).__name__, str(excinfo.value)) == expected

    @pytest.mark.parametrize("key", ["sync_delta", "hardware_skeleton_nose_y", "extra_column"],
                             ids=["canonical column", "keypoint axis", "extra"])
    def test_nan_in_decoded_rows_is_not_finite(self, key):
        rows = [{"backing_track_position": 0.0},
                {"backing_track_position": 130.0, "hardware_skeleton_nose_x": 1.0,
                 "hardware_skeleton_nose_y": 2.0, "hardware_skeleton_nose_confidence": 0.5,
                 key: math.nan}]
        expected = oracle_parse_error(rows)
        assert expected[1].startswith("row 1: ") and expected[1].endswith(" is not finite")
        with pytest.raises(SchemaError) as excinfo:
            parse_session_file(rows)
        assert (type(excinfo.value).__name__, str(excinfo.value)) == expected


def _full_row(i, **values):
    """A row holding every canonical key: integers in the integer fields,
    0.5 elsewhere, a clock 130 ms per row and a sync delta of 0.25."""
    row = {key: 1 if key.endswith(("_id", "flow", "eda")) or "_eeg_" in key else 0.5
           for key in canonical_columns()}
    row.update({"backing_track_position": 130.0 * i, "sync_delta": 0.25, **values})
    return row


def _shuffled_rows(n):
    rows = []
    for i in range(n):  # key orders that change from row to row
        items = list(_full_row(i).items())
        rows.append(dict(items[i:] + items[:i] if i % 2 else items[::-1]))
    return rows


def _without(row, key):
    del row[key]
    return row


class TestTablePathEquivalence:
    """Documents the one-table read must get exactly as the per-key read
    did: the same columns, ids and extras, or the same error."""

    @pytest.mark.parametrize("rows, session_id, extras", [
        (_shuffled_rows(4), "stem", {}),
        ([_full_row(0), _without(_full_row(1), "hardware_brainbit_eeg_o1"), _full_row(2)],
         "stem", {}),
        ([_full_row(0), _full_row(1, session_id="abc"), _full_row(2)], "abc", {}),
        ([_full_row(0, session_id="abc"), _full_row(1, foo=1), _full_row(2, session_id="abc")],
         "abc", {1: {"foo": 1}}),
        ([_without(_full_row(0), "flow") | {"bar": "x"}, _full_row(1)], "stem", {0: {"bar": "x"}}),
        ([], "stem", {}),
    ], ids=["keys in different orders", "a row missing a canonical key",
            "session id on some rows", "an extras key on one row",
            "a missing key and an extra in one row", "no rows"])
    def test_same_session(self, rows, session_id, extras):
        for data in (json.dumps(rows), rows):
            session = parse_session_file(data, "stem")
            assert session.session_id == session_id and len(session) == len(rows)
            assert [dict(r.extras) for r in session.records] == \
                [extras.get(i, {}) for i in range(len(rows))]
            for key in canonical_columns():
                got = [None if v is None else float(v) for v in column_values(session, key)]
                assert repr(got) == repr([None if row.get(key) is None else float(row[key])
                                          for row in rows]), key

    @pytest.mark.parametrize("text, error, message", [
        (doc([_full_row(0), _full_row(1, flow="HERE")]).replace('"HERE"', "true"),
         SchemaError, "row 1: flow is not numeric: True"),
        (doc([_full_row(0), _full_row(1, hardware_bitalino_eda="1.5")]),
         SchemaError, "row 1: hardware_bitalino_eda is not numeric: '1.5'"),
        (doc([_full_row(0), _full_row(1, hardware_skeleton_nose_x="1.5")]),
         SchemaError, "row 1: hardware_skeleton_nose is not numeric: '1.5'"),
        (doc([_full_row(0), _full_row(1, hardware_bitalino_eda="HERE")]).replace(
            '"HERE"', "1" * 400), SchemaError, "row 1: hardware_bitalino_eda is not finite"),
        (doc([_full_row(0), _full_row(1, sync_delta="HERE")]).replace('"HERE"', "1" * 400),
         SchemaError, "row 1: sync_delta is not finite"),
        ("[1]", MalformedDocument, "row 0: record is not an object"),
        (doc([_full_row(0)])[:-1] + ", 1]", MalformedDocument, "row 1: record is not an object"),
    ], ids=["true in a number column", "a numeric string", "a numeric string in a keypoint",
            "a 400-digit integer", "a 400-digit integer in a float column",
            "only a non-object row", "an object row, then 1"])
    def test_same_error(self, text, error, message):
        assert oracle_parse_error(json.loads(text)) == (error.__name__, message)
        with pytest.raises(error) as excinfo:
            parse_session_file(text)
        assert str(excinfo.value) == message

    def test_nan_in_a_full_row_of_decoded_rows_is_not_finite(self):
        with pytest.raises(SchemaError) as excinfo:
            parse_session_file([_full_row(0), _full_row(1, hardware_skeleton_l_ear_y=math.nan)])
        assert str(excinfo.value) == "row 1: hardware_skeleton_l_ear is not finite"
