import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    oracle_bar_buckets,
    oracle_bar_stat,
    oracle_beat,
    oracle_mode,
    performance_session,
    session_of,
)
from musicking_lab.cli import main
from musicking_lab.cluster import bar_features
from musicking_lab.errors import (
    InvariantError,
    MissingChorusIds,
    NonFinite,
    OutOfTrack,
    TooFewBeats,
    TooFewRecords,
    UnknownColumn,
)
from musicking_lab.ingest import load_bundled_beat_grid, serialize_session
from musicking_lab.model import BeatGrid
from musicking_lab.timing import (
    PER_BAR_STATS,
    aggregate_per_bar,
    align_session,
    assign_musical_position,
    delta_profile,
    estimate_tempo,
    infer_sampling_rate,
    per_bar_chorus,
    segment_choruses,
)


def simple_grid(n_beats=12, spacing=1.0, duration=None):
    beats = tuple(i * spacing for i in range(n_beats))
    return BeatGrid(beat_times=beats, bar_times=beats[0::4], tempo_bpm=60.0 / spacing,
                    duration_s=duration if duration is not None else beats[-1] + spacing,
                    audio_sample_rate_hz=22050)


class TestSamplingRate:
    def test_reported_mean_interval_reproduced(self):
        n = 2548
        positions = [i * 130.153121 for i in range(n)]
        profile = infer_sampling_rate(session_of(positions))
        assert profile.rate_hz == pytest.approx(7.683257937395139, abs=1e-9)
        assert profile.nyquist_hz == pytest.approx(3.8416289686975696, abs=1e-9)

    def test_one_second_intervals(self):
        profile = infer_sampling_rate(session_of([0, 1000, 2000]))
        assert profile.rate_hz == 1.0
        assert profile.nyquist_hz == 0.5

    def test_uniform_125ms(self):
        profile = infer_sampling_rate(session_of([0, 125, 250, 375]))
        assert profile.mean_interval_ms == 125.0
        assert profile.rate_hz == 8.0

    def test_nyquist_exactly_half(self):
        rng = np.random.default_rng(0)
        positions = np.cumsum(rng.uniform(100, 160, size=50))
        profile = infer_sampling_rate(session_of(positions.tolist()))
        assert profile.nyquist_hz == profile.rate_hz / 2.0

    def test_median_interval(self):
        profile = infer_sampling_rate(session_of([0, 100, 200, 500]))
        assert profile.median_interval_ms == 100.0

    def test_too_few(self):
        with pytest.raises(TooFewRecords):
            infer_sampling_rate(session_of([0]))

    @pytest.mark.parametrize("positions, mean", [([0.0, 0.0], "0.0"), ([0.0, -130.0], "-130.0")])
    def test_clock_that_does_not_advance(self, positions, mean):
        with pytest.raises(InvariantError,
                           match=f"^mean position interval must be > 0 ms, got {mean}$"):
            infer_sampling_rate(session_of(positions))

    @pytest.mark.parametrize("positions, message", [
        ([-1.7e308, 1.7e308], "position intervals overflow double precision"),
        ([-1e308, 0.0, 1e308], "position intervals overflow double precision"),
        ([0.0, 5e-324, 1e-323],
         "sampling rate overflows double precision (mean interval 5e-324 ms)"),
    ], ids=["interval overflows", "sum of intervals overflows", "rate overflows"])
    def test_clock_it_cannot_read(self, positions, message):
        # An overflow is refused as every other overflow is, as NonFinite.
        with pytest.raises(NonFinite, match=f"^{re.escape(message)}$"):
            infer_sampling_rate(session_of(positions))

    def test_histogram_counts_sum_to_intervals(self, tmp_path):
        # analyze bins the intervals next to the rate in its sampling_profile.
        (tmp_path / "data").mkdir()
        (tmp_path / "data" / "s.json").write_text(
            serialize_session(session_of([0, 125, 250, 375, 500])))
        assert main(["analyze", "--session", "s", "--dataset", str(tmp_path / "data"),
                     "--out", str(tmp_path / "out")]) == 0
        profile = json.loads((tmp_path / "out" / "analyze" / "s" / "analysis.json")
                             .read_text())["sections"]["sampling_profile"]
        assert profile["rate_hz"] == 8.0
        assert sum(c for _, _, c in profile["interval_histogram"]) == 4


class TestDeltaProfile:
    def test_stable_deltas_no_outliers(self):
        deltas = [None] + [130.0] * 50
        positions = np.cumsum([0] + [130.0] * 50)
        profile = delta_profile(session_of(positions.tolist(), delta=deltas))
        assert profile.outliers.indices == ()

    def test_216_flagged(self):
        deltas = [130.0] * 50 + [216.0]
        positions = np.cumsum([100.0] + deltas).tolist()
        profile = delta_profile(session_of(positions, delta=[None] + deltas[1:] + [216.0]))
        assert len(positions) - 1 in profile.outliers.indices

    def test_dominant_bin(self):
        deltas = list(np.linspace(125, 150, 40))
        positions = np.cumsum([0.0] + deltas)
        profile = delta_profile(session_of(positions.tolist(), delta=[None] + deltas),
                                bins=1)
        assert profile.histogram[0][2] == 40

    def test_too_few_records(self):
        with pytest.raises(TooFewRecords):
            delta_profile(session_of([0]))


class TestSegmentChoruses:
    def test_three_segments(self):
        s = session_of([0, 1, 2, 3, 4], chorus=[0, 0, 1, 1, 2])
        segments = segment_choruses(s)
        assert [seg.chorus_id for seg in segments] == [0, 1, 2]
        assert [seg.performance for seg in segments] == [False, True, True]
        assert segments[0].start_index == 0 and segments[0].end_index == 1

    def test_single_segment(self):
        segments = segment_choruses(session_of([0, 1, 2], chorus=[1, 1, 1]))
        assert len(segments) == 1
        assert len(segments[0]) == 3

    def test_999_tail_length(self):
        chorus = [1] * 10 + [999] * 59
        segments = segment_choruses(session_of(list(range(69)), chorus=chorus))
        assert len(segments[-1]) == 59
        assert segments[-1].chorus_id == 999
        assert not segments[-1].performance

    def test_only_0_and_999_are_outside_the_performance(self):
        # An id outside {0..5, 999} is performance, as compare and cluster count it.
        s = session_of(list(range(6)), chorus=[0, 1, 5, 7, -2, 999])
        assert [seg.performance for seg in segment_choruses(s)] == [False, True, True, True,
                                                                    True, False]

    def test_missing_ids(self):
        with pytest.raises(MissingChorusIds):
            segment_choruses(session_of([0, 1], chorus=[1, None]))

    @given(st.lists(st.sampled_from([0, 1, 2, 3, 999]), min_size=1, max_size=40))
    def test_partition_covers_all_records(self, chorus):
        s = session_of(list(range(len(chorus))), chorus=chorus)
        segments = segment_choruses(s)
        covered = []
        for seg in segments:
            covered.extend(range(seg.start_index, seg.end_index + 1))
        assert covered == list(range(len(chorus)))


class TestEstimateTempo:
    def test_fixture_tempo(self, grid):
        assert estimate_tempo(grid) == pytest.approx(60.09, abs=0.05)

    def test_uniform_beats(self):
        assert estimate_tempo(simple_grid(4, spacing=1.0)) == 60.0

    def test_half_second_beats(self):
        assert estimate_tempo(simple_grid(3, spacing=0.5)) == 120.0

    def test_too_few_beats(self):
        g = BeatGrid(beat_times=(0.0,), bar_times=(0.0,), tempo_bpm=60.0,
                     duration_s=1.0, audio_sample_rate_hz=22050)
        with pytest.raises(TooFewBeats):
            estimate_tempo(g)

    def test_fixture_median_interbeat(self, grid):
        intervals = np.diff(grid.beat_times)
        assert float(np.median(intervals)) == pytest.approx(0.99845805, abs=1e-6)


class TestAssignMusicalPosition:
    def test_five_seconds_is_bar_one(self, grid):
        p = assign_musical_position(5000.0, grid)
        assert (p.bar_index, p.beat_in_bar) == (1, 0)
        assert p.beat_index_global == 4

    def test_first_beat(self, grid):
        p = assign_musical_position(560.0, grid)
        assert (p.bar_index, p.beat_in_bar) == (0, 0)
        assert p.offset_s == pytest.approx(0.00272109, abs=1e-8)

    def test_just_below_third_bar(self, grid):
        t_ms = grid.bar_times[2] * 1000.0 - 1.0
        p = assign_musical_position(t_ms, grid)
        assert (p.bar_index, p.beat_in_bar) == (1, 3)

    def test_exactly_on_bar_boundary(self, grid):
        p = assign_musical_position(grid.bar_times[2] * 1000.0, grid)
        assert (p.bar_index, p.beat_in_bar) == (2, 0)

    def test_before_first_beat_negative_offset(self, grid):
        p = assign_musical_position(0.0, grid)
        assert p.beat_index_global == 0
        assert p.offset_s < 0

    def test_out_of_track(self, grid):
        with pytest.raises(OutOfTrack):
            assign_musical_position(grid.duration_s * 1000.0 + 1.0, grid)
        with pytest.raises(OutOfTrack):
            assign_musical_position(-0.5, grid)

    def test_end_of_track_is_last_bar(self, grid):
        p = assign_musical_position(grid.duration_s * 1000.0, grid)
        assert p.bar_index == grid.n_bars - 1

    def test_offset_zero_on_every_beat(self, grid):
        for b, t in enumerate(grid.beat_times):
            p = assign_musical_position(t * 1000.0, grid)
            assert p.offset_s == 0.0
            assert p.beat_index_global == b

    @settings(max_examples=200, deadline=None)
    @given(a=st.floats(0.0, 331.5, allow_nan=False),
           b=st.floats(0.0, 331.5, allow_nan=False))
    def test_monotone(self, grid, a, b):
        if a > b:
            a, b = b, a
        pa = assign_musical_position(a * 1000.0, grid)
        pb = assign_musical_position(b * 1000.0, grid)
        key_a = (pa.bar_index, pa.beat_index_global, pa.offset_s)
        key_b = (pb.bar_index, pb.beat_index_global, pb.offset_s)
        assert key_a <= key_b

    def test_consistency_bar_vs_beat(self, grid):
        for t in np.linspace(0, grid.duration_s, 500):
            p = assign_musical_position(float(t) * 1000.0, grid)
            beat_t = grid.beat_times[p.beat_index_global]
            assert grid.bar_times[p.bar_index] <= beat_t
            if p.bar_index + 1 < grid.n_bars:
                assert beat_t < grid.bar_times[p.bar_index + 1]


class TestAggregatePerBar:
    def test_output_has_one_slot_per_bar(self, grid):
        s = performance_session(grid, seed=1)
        out = aggregate_per_bar(s, grid, "eda")
        assert len(out) == 81

    def test_constant_column_mean(self, grid):
        positions = np.arange(1000.0, grid.duration_s * 1000.0, 500.0)
        s = session_of(positions.tolist(), eda=[5] * len(positions),
                       chorus=[1] * len(positions))
        out = aggregate_per_bar(s, grid, "eda", stat="mean")
        assert all(v == 5.0 for v in out if v is not None)

    def test_partial_coverage_leaves_nulls(self, grid):
        # records only inside bars 0..2
        limit = grid.bar_times[3] * 1000.0 - 1.0
        positions = np.linspace(600.0, limit, 40)
        s = session_of(positions.tolist(), eda=[7] * 40, chorus=[1] * 40)
        out = aggregate_per_bar(s, grid, "eda")
        assert all(v is not None for v in out[:3])
        assert all(v is None for v in out[3:])

    def test_sum_of_ones_counts_records(self, grid):
        s = performance_session(grid, seed=2)
        ones = session_of(
            [r.backing_track_position for r in s.records],
            eda=[1] * len(s.records),
            chorus=[r.chorus_id for r in s.records])
        sums = aggregate_per_bar(ones, grid, "eda", stat="sum")
        counts = [0] * grid.n_bars
        for r in s.records:
            if r.chorus_id in (0, 999):
                continue
            if r.backing_track_position > grid.duration_s * 1000.0:
                continue
            counts[assign_musical_position(r.backing_track_position, grid).bar_index] += 1
        assert [0 if v is None else v for v in sums] == counts

    def test_nonperformance_excluded_by_default(self, grid):
        positions = [1000.0, 2000.0, 3000.0]
        s = session_of(positions, eda=[10, 20, 30], chorus=[0, 1, 999])
        out = aggregate_per_bar(s, grid, "eda")
        assert out[0] == 20.0
        included = aggregate_per_bar(s, grid, "eda", include_nonperformance=True)
        assert included[0] == 20.0

    @pytest.mark.parametrize("stat", ["mean", "sum", "std"])
    def test_statistic_that_overflows(self, grid, stat):
        s = session_of([1000.0, 1100.0], eda=[1.7e308, 1.7e308], chorus=[1, 1])
        with pytest.raises(NonFinite,
                           match=f"^per-bar {stat} of eda overflows double precision$"):
            aggregate_per_bar(s, grid, "eda", stat=stat)

    @pytest.mark.parametrize("stat", ["mean", "std"])
    @pytest.mark.parametrize("eda, chorus", [
        ([math.inf, 1.0], [1, 1]),
        ([math.inf, -math.inf], [1, 1]),
        ([math.inf, 1.0], [0, 1]),
    ], ids=["inf", "inf and -inf", "inf outside the performance"])
    def test_infinite_value(self, grid, stat, eda, chorus):
        s = session_of([1000.0, 1100.0], eda=eda, chorus=chorus)
        with pytest.raises(NonFinite, match=f"^per-bar {stat} of eda of an infinite value$"):
            aggregate_per_bar(s, grid, "eda", stat=stat)

    def test_unknown_column(self, grid):
        with pytest.raises(UnknownColumn):
            aggregate_per_bar(session_of([0.0]), grid, "bogus")

    def test_bad_stat(self, grid):
        with pytest.raises(ValueError):
            aggregate_per_bar(session_of([0.0]), grid, "eda", stat="mode")

    def test_std_single_sample_is_zero(self, grid):
        s = session_of([1000.0], eda=[10], chorus=[1])
        out = aggregate_per_bar(s, grid, "eda", stat="std")
        assert out[0] == 0.0

    def test_offset_shifts_assignment(self, grid):
        bar1_start_ms = grid.bar_times[1] * 1000.0
        s = session_of([bar1_start_ms - 10.0], eda=[3], chorus=[1])
        assert aggregate_per_bar(s, grid, "eda")[0] == 3.0
        shifted = aggregate_per_bar(s, grid, "eda", offset_ms=10.0)
        assert shifted[1] == 3.0 and shifted[0] is None


class TestAlignAndChorusJoin:
    def test_align_table_shape(self, grid):
        s = performance_session(grid, seed=3, tail_count=5)
        rows = align_session(s, grid)
        assert len(rows) == len(s.records)
        assert rows[-1].bar_index is None  # tail runs past the track
        on_grid = [r for r in rows if r.bar_index is not None]
        assert on_grid, "expected on-grid records"

    def test_per_bar_chorus_majority(self, grid):
        s = performance_session(grid, seed=4)
        chorus_of_bar = per_bar_chorus(s, grid)
        assert len(chorus_of_bar) == grid.n_bars
        # five playthroughs laid out in 16-bar blocks
        assert chorus_of_bar[0] == 1
        assert chorus_of_bar[16] == 2
        assert chorus_of_bar[79] == 5

    def test_per_bar_chorus_tie_goes_to_smaller_id(self, grid):
        s = session_of([1000.0, 1100.0, 1200.0, 1300.0, 5000.0, 5100.0],
                       chorus=[2, 1, 2, 1, 999, 0])
        assert per_bar_chorus(s, grid)[:2] == [1, None]
        assert per_bar_chorus(s, grid, include_nonperformance=True)[:2] == [1, 0]


BUNDLED_GRID = load_bundled_beat_grid()


@st.composite
def oracle_cases(draw):
    """A grid (bundled, or a small regular one whose first beat may be
    after 0 s) and an unsorted session around it: positions before the
    first beat, exactly on beats and past the track end, an offset, null
    values and chorus ids of None, 0 and 999."""
    if draw(st.booleans()):
        grid = BUNDLED_GRID
    else:
        first = draw(st.sampled_from([0.0, 0.25, 1.5]))
        spacing = draw(st.sampled_from([0.5, 0.7, 1.0]))
        beats = tuple(first + i * spacing for i in range(draw(st.integers(1, 14))))
        grid = BeatGrid(beat_times=beats, bar_times=beats[0::4], tempo_bpm=60.0 / spacing,
                        duration_s=beats[-1] + spacing, audio_sample_rate_hz=22050)
    end_ms = grid.duration_s * 1000.0
    position = st.one_of(
        st.floats(-500.0, end_ms + 500.0),
        st.sampled_from([t * 1000.0 for t in grid.beat_times[:40]] + [0.0, end_ms]))
    n = draw(st.integers(0, 60))
    positions = draw(st.lists(position, min_size=n, max_size=n))
    values = draw(st.lists(st.one_of(st.none(), st.floats(-1e6, 1e6)), min_size=n, max_size=n))
    chorus = draw(st.lists(st.sampled_from([None, 0, 1, 2, 999]), min_size=n, max_size=n))
    offset_ms = draw(st.sampled_from([0.0, 0.0, 130.5, -250.0]))
    return grid, session_of(positions, eda=values, chorus=chorus), offset_ms


class TestAlignmentOracle:
    """Exact agreement with a linear scan over the beats, record by record."""

    @settings(max_examples=150, deadline=None)
    @given(case=oracle_cases(), include=st.booleans())
    def test_aggregate_per_bar(self, case, include):
        grid, s, offset_ms = case
        eda = [r.eda for r in s.records]
        buckets = oracle_bar_buckets(s, grid, eda, include, offset_ms)
        for stat in PER_BAR_STATS:
            out = aggregate_per_bar(s, grid, "eda", stat=stat,
                                    include_nonperformance=include, offset_ms=offset_ms)
            assert out == [oracle_bar_stat(b, stat) for b in buckets]

    @settings(max_examples=150, deadline=None)
    @given(case=oracle_cases(), include=st.booleans())
    def test_per_bar_chorus(self, case, include):
        grid, s, offset_ms = case
        ids = [r.chorus_id for r in s.records]
        buckets = oracle_bar_buckets(s, grid, ids, include, offset_ms)
        expected = [oracle_mode([int(c) for c in b]) for b in buckets]
        assert per_bar_chorus(s, grid, include_nonperformance=include,
                              offset_ms=offset_ms) == expected

    @settings(max_examples=150, deadline=None)
    @given(case=oracle_cases())
    def test_align_session(self, case):
        grid, s, offset_ms = case
        rows = align_session(s, grid, offset_ms=offset_ms)
        expected = []
        for i, r in enumerate(s.records):
            t_ms = r.backing_track_position + offset_ms
            beat = oracle_beat(t_ms, grid)
            expected.append((i, t_ms, r.chorus_id, None if beat is None else beat // 4,
                             None if beat is None else beat % 4))
        assert [(a.record_index, a.t_ms, a.chorus_id, a.bar_index, a.beat_in_bar)
                for a in rows] == expected

    @settings(max_examples=150, deadline=None)
    @given(case=oracle_cases(), include=st.booleans(),
           chorus=st.sampled_from([None, 0, 1, 2, 999]))
    def test_bar_features(self, case, include, chorus):
        grid, s, offset_ms = case
        eda = [r.eda if chorus is None or r.chorus_id == chorus else None for r in s.records]
        buckets = oracle_bar_buckets(s, grid, eda, include, offset_ms)
        kept = [b for b, bucket in enumerate(buckets) if bucket]
        m = bar_features(s, grid, "eda", include_nonperformance=include, chorus=chorus,
                         standardize=False, offset_ms=offset_ms)
        assert m.bar_index == tuple(kept)
        assert m.dropped == tuple(b for b in range(grid.n_bars) if not buckets[b])
        expected = [[oracle_bar_stat(buckets[b], stat) for stat in m.feature_names]
                    for b in kept]
        assert m.rows.tolist() == expected
