import contextlib
import io
import json
import logging
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from helpers import oracle_parse_error, performance_session
from musicking_lab import ingest
from musicking_lab.cli import main
from musicking_lab.errors import InvariantError, MalformedDocument, SchemaError
from musicking_lab.ingest import (
    discover_dataset,
    find_session,
    load_bundled_beat_grid,
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
    @given(sessions_st())
    def test_parse_serialize_identity(self, session):
        assert parse_session_file(serialize_session(session)) == session

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


def _write_rows(path, session_id, n=3, **extra):
    rows = [{"backing_track_position": i * 130.0, "session_id": session_id,
             "hardware_bitalino_eda": 400 + i, **extra} for i in range(n)]
    path.write_text(json.dumps(rows))


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

    def test_record_counts(self, tmp_path):
        _write_rows(tmp_path / "a.json", "a", n=7)
        manifest = discover_dataset(tmp_path)
        assert manifest.entries[0].record_count == 7


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
    def test_every_file_parsed_once(self, corpus, parse_calls, command, exit_code):
        data, out = corpus
        assert main([command, "--dataset", str(data), "--out", str(out)]) == exit_code
        assert sorted(parse_calls) == ["f0", "f1", "f2", "f3", "f4"]

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

    def test_file_stem_is_the_fallback_id(self, tmp_path):
        (tmp_path / "stem.json").write_text(doc([{"backing_track_position": 0}]))
        assert find_session(tmp_path, "stem").session_id == "stem"

    def test_unknown_id_not_found(self, tmp_path):
        _write_rows(tmp_path / "a.json", "a")
        code, log_text = _run_cli(["analyze", "--dataset", str(tmp_path),
                                   "--out", str(tmp_path / "out"), "--session", "nope"])
        assert code == 1
        assert "not found" in log_text

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
    ], ids=["clock before non-finite", "non-finite before clock", "same row",
            "clock before non-object", "non-object before clock", "no clock in the first row",
            "session id not a string"])
    def test_reported_row_and_message(self, rows, error, message):
        with pytest.raises(error) as excinfo:
            parse_session_file(doc(rows).replace('"HUGE"', "1e400"))
        assert str(excinfo.value) == message


_BREAK_LITERALS = ["1e400", "-1e999", "1" + "0" * 400, '"text"', "true", "[]", "{}", "2.5",
                   "null"]
_BREAK_KEYS = ["backing_track_position", "sync_delta", "sync_chorus_id", "flow",
               "hardware_bitalino_eda", "hardware_brainbit_eeg_o2", "hardware_skeleton_nose_x",
               "hardware_skeleton_l_ear_confidence", "session_id", "extra_column"]


@st.composite
def documents_with_breaks(draw):
    """A small session document with up to three contract breaks of any
    kind in any rows, as text."""
    n = draw(st.integers(1, 6))
    rows, position = [], 0.0
    for step in draw(st.lists(st.floats(1.0, 400.0), min_size=n, max_size=n)):
        position += step
        rows.append({"session_id": "fz", "backing_track_position": position, "flow": 3,
                     "hardware_skeleton_nose_x": 1.0, "hardware_skeleton_nose_y": 2.0,
                     "hardware_skeleton_nose_confidence": 0.5, "extra_column": 1})
    literals = []
    for _ in range(draw(st.integers(0, 3))):
        row = draw(st.integers(0, n - 1))
        kind = draw(st.sampled_from(["value", "clock", "drop", "row"]))
        if not isinstance(rows[row], dict):
            continue
        if kind == "value":
            rows[row][draw(st.sampled_from(_BREAK_KEYS))] = f"BREAK{len(literals)}"
            literals.append(draw(st.sampled_from(_BREAK_LITERALS)))
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
