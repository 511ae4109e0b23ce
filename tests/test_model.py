import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    kp,
    make_record,
    oracle_column_values,
    oracle_mean_trajectory,
    oracle_validate_session,
    sentinel_kp,
    session_of,
)
from musicking_lab.analytics import mean_trajectory
from musicking_lab.errors import InvariantError, UnknownColumn
from musicking_lab.model import (
    BeatGrid,
    CHORUS_IDS,
    EEG_CHANNELS,
    Keypoint,
    Record,
    SKELETON_AXES,
    SKELETON_PARTS,
    Session,
    _column,
    canonical_columns,
    column_values,
    validate_record,
    validate_session,
)


class TestValidateRecord:
    def test_valid_record_has_no_violations(self):
        r = make_record(100.0, chorus_id=3, flow=50, eda=400,
                        keypoints={"nose": kp(10.0, 20.0, 0.9)})
        assert validate_record(r) == []

    def test_bad_chorus_id(self):
        r = make_record(100.0, chorus_id=7)
        assert validate_record(r) == ["chorus_id not in {0..5,999}"]

    @pytest.mark.parametrize("chorus", sorted(CHORUS_IDS))
    def test_all_legal_chorus_ids(self, chorus):
        assert validate_record(make_record(0.0, chorus_id=chorus)) == []

    def test_sentinel_mismatch(self):
        r = make_record(0.0, keypoints={"nose": Keypoint(-1.0, 120.0, 0.0)})
        assert any("sentinel mismatch" in v for v in validate_record(r))

    def test_sentinel_pair_is_fine(self):
        r = make_record(0.0, keypoints={"nose": sentinel_kp()})
        assert validate_record(r) == []

    def test_confidence_out_of_range(self):
        r = make_record(0.0, keypoints={"nose": Keypoint(1.0, 2.0, 1.5)})
        assert validate_record(r) == ["nose: confidence not in [0,1]"]

    def test_negative_eda_and_flow(self):
        r = make_record(0.0, eda=-4, flow=-1)
        violations = validate_record(r)
        assert "eda below 0" in violations
        assert "flow below 0" in violations

    def test_coordinates_below_sentinel(self):
        r = make_record(0.0, keypoints={"neck": Keypoint(-2.0, -2.0, 0.5)})
        violations = validate_record(r)
        assert "neck: x below -1" in violations
        assert "neck: y below -1" in violations

    def test_unknown_part_flagged(self):
        r = make_record(0.0, keypoints={"tail": kp(1.0, 2.0)})
        assert "tail: unknown body part" in validate_record(r)

    def test_null_fields_never_violate(self):
        assert validate_record(make_record(0.0)) == []

    def test_integer_beyond_a_double_is_not_an_integer(self):
        record = Record(0.0, flow=10 ** 400)
        assert validate_record(record) == ["flow not an integer"]
        assert validate_session(Session("s", [record])) == ["record 0: flow not an integer"]


class TestValidateSession:
    def test_monotone_positions_pass(self):
        assert validate_session(session_of([0, 130, 260])) == []

    def test_repeated_position_flagged(self):
        violations = validate_session(session_of([0, 130, 130]))
        assert violations == ["position not strictly increasing at index 2"]

    def test_empty_records(self):
        assert validate_session(Session("s", ())) == ["records empty"]

    def test_record_violations_carry_index(self):
        s = session_of([0, 130], chorus=[None, 42])
        assert validate_session(s) == ["record 1: chorus_id not in {0..5,999}"]

    @given(st.lists(st.floats(0, 1e6, allow_nan=False), min_size=1, max_size=30))
    def test_clean_validation_implies_increasing_diffs(self, positions):
        s = session_of(positions)
        if validate_session(s) == []:
            diffs = [b - a for a, b in zip(positions, positions[1:])]
            assert all(d > 0 for d in diffs)

    @given(st.lists(st.floats(0, 1e6, allow_nan=False), min_size=1, max_size=20))
    def test_validation_is_pure(self, positions):
        s = session_of(positions)
        assert validate_session(s) == validate_session(s)


class TestBeatGrid:
    def test_bar_off_beat_rejected(self):
        with pytest.raises(InvariantError, match="bar time not in beats"):
            BeatGrid(beat_times=(0.5, 1.5), bar_times=(1.0,), tempo_bpm=60.0,
                     duration_s=10.0, audio_sample_rate_hz=22050)

    def test_bars_must_be_every_fourth_beat(self):
        beats = (0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0)
        with pytest.raises(InvariantError, match="every 4th"):
            BeatGrid(beat_times=beats, bar_times=(0.0, 2.0), tempo_bpm=60.0,
                     duration_s=10.0, audio_sample_rate_hz=22050)

    def test_non_monotone_beats_rejected(self):
        with pytest.raises(InvariantError, match="not strictly increasing"):
            BeatGrid(beat_times=(0.0, 2.0, 1.0), bar_times=(0.0,), tempo_bpm=60.0,
                     duration_s=10.0, audio_sample_rate_hz=22050)

    def test_valid_grid(self):
        g = BeatGrid(beat_times=(0.0, 1.0, 2.0, 3.0, 4.0), bar_times=(0.0, 4.0),
                     tempo_bpm=60.0, duration_s=6.0, audio_sample_rate_hz=22050)
        assert g.n_bars == 2


class TestColumns:
    def test_canonical_count(self):
        # 5 sync/physio scalars + 4 EEG + 12 parts x 3 axes
        assert len(canonical_columns()) == 5 + 4 + len(SKELETON_PARTS) * 3

    def test_alias_and_canonical_agree(self):
        s = session_of([0, 130], eda=[400, 410])
        assert column_values(s, "eda") == column_values(s, "hardware_bitalino_eda")

    def test_skeleton_column_with_missing_part(self):
        s = session_of([0, 130], keypoints=[{"nose": kp(4.0, 5.0)}, {}])
        assert column_values(s, "nose_x") == [4.0, None]
        assert column_values(s, "hardware_skeleton_nose_confidence") == [0.9, None]

    def test_extras_fallback(self):
        r = Record(backing_track_position=0.0, extras={"foo": 7})
        s = Session("s", (r,))
        assert column_values(s, "foo") == [7]

    def test_unknown_column(self):
        with pytest.raises(UnknownColumn):
            column_values(session_of([0]), "no_such_column")


def _short_alias(name: str) -> str:
    """The short alias of a canonical column name, spelled out here rather
    than read from the model's table."""
    if name == "sync_chorus_id":
        return "chorus_id"
    for prefix in ("hardware_skeleton_", "hardware_brainbit_", "hardware_bitalino_"):
        name = name.removeprefix(prefix)
    return name


class TestColumnSchema:
    def test_name_and_alias_read_one_array(self):
        s = session_of([0, 130, 260], eda=[1, None, 3],
                       keypoints=[{part: kp(1.0, 2.0) for part in SKELETON_PARTS}, {},
                                  {"nose": kp(3.0, 4.0)}])
        aliases = [_short_alias(name) for name in canonical_columns()]
        assert len(set(aliases)) == len(aliases) == 45
        assert set(s._columns) == set(aliases)
        for name, alias in zip(canonical_columns(), aliases):
            column = _column(s, name)
            assert _column(s, alias) is column, name
            assert column.shape == (len(s),), name

    def test_part_with_one_null_axis_stays_present(self):
        s = Session("s", [make_record(0.0, keypoints={"nose": Keypoint(None, 2.0, 0.5)})])
        assert list(s.records[0].keypoints) == ["nose"]
        assert column_values(s, "nose_x") == [None]
        assert column_values(s, "nose_y") == [2.0]
        assert validate_session(s) == []


class TestSessionColumns:
    def test_non_numeric_value_names_the_record(self):
        records = [make_record(0.0, eda=400), make_record(130.0, eda="high")]
        with pytest.raises(InvariantError, match="record 1: eda is not a number: 'high'"):
            Session("s", records)

    def test_bool_is_not_a_number(self):
        with pytest.raises(InvariantError, match="record 0: flow"):
            Session("s", [make_record(0.0, flow=True)])

    def test_non_numeric_keypoint_names_the_record(self):
        records = [make_record(0.0), make_record(1.0, keypoints={"nose": Keypoint("a", 1.0, 0.5)})]
        with pytest.raises(InvariantError, match="record 1: nose: x is not a number"):
            Session("s", records)

    @pytest.mark.parametrize("record", [
        make_record(1.0, flow=math.nan),
        make_record(1.0, sync_delta=math.nan),
        make_record(math.nan),
        make_record(1.0, keypoints={"nose": Keypoint(1.0, math.nan, 0.5)}),
        make_record(1.0, keypoints={"nose": Keypoint(math.nan, math.nan, math.nan)}),
    ])
    def test_nan_is_not_a_number(self, record):
        with pytest.raises(InvariantError, match="record 1: .* is not a number: nan"):
            Session("s", [make_record(0.0), record])

    def test_numpy_scalars_count_as_validate_record_counts_them(self):
        assert validate_record(make_record(0.0, eda=np.int64(3))) == ["eda not numeric"]
        with pytest.raises(InvariantError, match="record 0: eda is not a number"):
            Session("s", [make_record(0.0, eda=np.int64(3))])
        s = Session("s", [make_record(0.0, eda=np.float64(3.0))])
        assert column_values(s, "eda") == [3]

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                       lambda s: pickle.loads(pickle.dumps(s))])
    def test_copy_and_pickle_round_trip(self, clone):
        records = (make_record(0.0, chorus_id=1, eda=5, keypoints={"neck": kp(1.0, 2.0)},
                               extras={"note": None}),
                   make_record(130.0, extras={"other": "x"}))
        s = Session("s", records)
        back = clone(s)
        assert back == s
        assert back.records == records
        # A missing extra stays missing, and a null one stays null.
        assert [r.extras for r in back.records] == [{"note": None}, {"other": "x"}]
        with pytest.raises(ValueError):
            back._columns["eda"][0] = 7.0

    def test_unknown_part_names_the_record(self):
        records = [make_record(0.0), make_record(1.0, keypoints={"tail": kp(1.0, 2.0)})]
        with pytest.raises(InvariantError, match="record 1: tail: unknown body part"):
            Session("s", records)

    def test_integral_value_of_an_integer_field_reads_as_int(self):
        s = Session("s", [make_record(0.0, eda=3.0, flow=2.5, sync_delta=4)])
        assert [(type(v), v) for v in column_values(s, "eda")] == [(int, 3)]
        assert [(type(v), v) for v in column_values(s, "flow")] == [(float, 2.5)]
        assert [(type(v), v) for v in column_values(s, "sync_delta")] == [(float, 4.0)]

    def test_records_view_round_trips(self):
        records = (make_record(0.0, chorus_id=1, eda=5, keypoints={"neck": kp(1.0, 2.0)},
                               extras={"note": "x"}),
                   make_record(130.0, extras={"note": None}))
        s = Session("s", records)
        assert len(s.records) == len(s) == 2
        assert s.records == records
        assert Session("s", s.records) == s

    def test_absent_extra_differs_from_null(self):
        null, absent = (Session("s", [make_record(0.0, extras=extras)])
                        for extras in ({"a": None}, {}))
        assert null != absent
        assert null.records[0].extras == {"a": None}
        assert absent.records[0].extras == {}

    def test_equality_reads_nulls_as_equal(self):
        assert session_of([0, 130], eda=[None, 4]) == session_of([0, 130], eda=[None, 4])
        assert session_of([0, 130], eda=[None, 4]) != session_of([0, 130], eda=[None, 5])
        assert session_of([0], session_id="a") != session_of([0], session_id="b")

    def test_columns_are_read_only(self):
        s = session_of([0, 130], eda=[1, 2])
        with pytest.raises(AttributeError):
            s.session_id = "other"
        with pytest.raises(ValueError):
            s._columns["eda"][0] = 7.0


# Sessions built in code, drawn to reach every branch of the column checks.
# Each field breaks its invariants once in eight draws, so most records
# break none or one of them.  Integer fields hold ints (exact within 2**53),
# non-integral or infinite floats, or None; an integral float there reads
# back as int (tested above), so it is not drawn.  Keypoints are listed in
# skeleton part order, the order the columns hold them in.  One record in
# sixteen has a NaN in one canonical field, which Session refuses.
def _mostly(valid, broken):
    return st.integers(0, 7).flatmap(lambda k: broken if k == 0 else valid)


_any = st.floats(allow_nan=False)
_infinity = st.sampled_from([-math.inf, math.inf])
_fraction = st.floats(-1e6, 1e6, allow_nan=False).filter(lambda v: not v.is_integer())
_count = st.none() | st.integers(0, 2 ** 53)
_chorus = _mostly(st.none() | st.sampled_from(sorted(CHORUS_IDS)),
                  st.integers(-3, 1000) | _fraction | _infinity)
_flow = _mostly(_count, st.integers(-2 ** 53, -1) | _fraction | _infinity)
_level = _mostly(_count | _fraction.map(abs) | st.just(math.inf),
                 st.integers(-2 ** 53, -1) | _fraction.map(lambda v: -abs(v)) | _infinity)
_coordinate = st.floats(0, 700)
_unit = st.floats(0, 1)
_below_sentinel = st.floats(max_value=-1.0, exclude_max=True, allow_nan=False)
_keypoint = _mostly(
    st.just(Keypoint(-1.0, -1.0, 0.0)) | st.builds(Keypoint, _coordinate, _coordinate, _unit),
    st.builds(Keypoint, st.just(-1.0), _coordinate, _unit)
    | st.builds(Keypoint, _coordinate, st.just(-1.0), _unit)
    | st.builds(Keypoint, _below_sentinel, _coordinate, _unit)
    | st.builds(Keypoint, _coordinate, _below_sentinel, _unit)
    | st.builds(Keypoint, _coordinate, _coordinate, _any.filter(lambda c: not 0 <= c <= 1))
    | st.builds(Keypoint, _any, _any, _any))


@st.composite
def record_lists(draw):
    positions = draw(st.lists(st.sampled_from([0.0, 130.0, 260.0]) | st.floats(-1e6, 1e6),
                              max_size=12))
    records = []
    for position in positions:
        parts = draw(st.sets(st.sampled_from(SKELETON_PARTS), max_size=4))
        eeg = [draw(_level) for _ in EEG_CHANNELS]
        records.append(Record(
            backing_track_position=position, sync_delta=draw(st.none() | _any),
            chorus_id=draw(_chorus), flow=draw(_flow), eda=draw(_level),
            eeg_t3=eeg[0], eeg_t4=eeg[1], eeg_o1=eeg[2], eeg_o2=eeg[3],
            keypoints={part: draw(_keypoint) for part in SKELETON_PARTS if part in parts},
            extras=draw(st.dictionaries(st.sampled_from(["a", "b", "note"]),
                                        st.none() | st.text("xyz", max_size=3)
                                        | st.integers(-5, 5) | st.floats(), max_size=2))))
        if draw(st.integers(0, 15)) == 0:
            records[-1] = _with_nan(records[-1], draw(st.sampled_from(_NAN_TARGETS)))
    return records


_NAN_TARGETS = (*(f.name for f in dataclasses.fields(Record)[:9]),
                *((part, axis) for part in SKELETON_PARTS[:2] for axis in SKELETON_AXES))


def _with_nan(record, target):
    if isinstance(target, str):
        return dataclasses.replace(record, **{target: math.nan})
    part, axis = target
    point = dataclasses.replace(record.keypoints.get(part, Keypoint(1.0, 1.0, 1.0)),
                                **{axis: math.nan})
    keypoints = {p: record.keypoints.get(p, point) for p in SKELETON_PARTS
                 if p in record.keypoints or p == part}
    return dataclasses.replace(record, keypoints={**keypoints, part: point})


def _session_or_refusal(records):
    """The session of the records, or None after checking that Session
    refuses a NaN in a canonical field."""
    values = [v for r in records
              for v in (*(getattr(r, f.name) for f in dataclasses.fields(Record)[:9]),
                        *(c for p in r.keypoints.values() for c in (p.x, p.y, p.confidence)))]
    if any(v is not None and math.isnan(v) for v in values):
        with pytest.raises(InvariantError, match="is not a number: nan"):
            Session("s", records)
        return None
    return Session("s", records)


def _exact(values):
    """Each value with its type and its repr, so 0.0 and -0.0 differ."""
    return [(type(v), repr(v)) for v in values]


_COLUMN_NAMES = (*canonical_columns(), "chorus_id", "eda", *(f"eeg_{ch}" for ch in EEG_CHANNELS),
                 *(f"{part}_{axis}" for part in SKELETON_PARTS for axis in SKELETON_AXES))


class TestColumnarOracle:
    """The columns against the per-record code they replaced."""

    @settings(max_examples=200, deadline=None)
    @given(record_lists())
    def test_column_values(self, records):
        session = _session_or_refusal(records)
        if session is None:
            return
        extras = {key for r in records for key in r.extras}
        for name in (*_COLUMN_NAMES, *extras):
            assert _exact(column_values(session, name)) == \
                _exact(oracle_column_values(records, name)), name

    @settings(max_examples=200, deadline=None)
    @given(record_lists())
    def test_validate_session(self, records):
        session = _session_or_refusal(records)
        if session is not None:
            assert validate_session(session) == oracle_validate_session(records)

    @settings(max_examples=200, deadline=None)
    @given(record_lists(), st.lists(st.sampled_from(SKELETON_PARTS), min_size=1, max_size=6))
    def test_mean_trajectory(self, records, parts):
        session = _session_or_refusal(records)
        if session is None:
            return
        got = mean_trajectory(session, parts)
        expected = oracle_mean_trajectory(records, parts)
        assert [_exact(v) for v in got] == [_exact(v) for v in expected]
