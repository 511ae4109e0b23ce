import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from helpers import kp, oracle_quantile, reference_interpolate_gaps, sentinel_kp, session_of
from musicking_lab.errors import AllMissing, NonFinite, TooFewValues
from musicking_lab.quality import (
    impute_median,
    integrity_report,
    interpolate_gaps,
    iqr_outliers,
    reliable_columns,
    sentinel_scan,
)

series_st = st.lists(
    st.none() | st.floats(-1e6, 1e6, allow_nan=False), min_size=0, max_size=60)


class TestIqrOutliers:
    def test_hand_example(self):
        entry = iqr_outliers([1, 2, 3, 4, 100], k=1.5)
        assert entry.indices == (4,)
        assert entry.lower == -1.0 and entry.upper == 7.0

    def test_four_inliers(self):
        assert iqr_outliers([1, 2, 3, 4]).indices == ()

    def test_constant_series(self):
        assert iqr_outliers([5, 5, 5, 5]).indices == ()

    def test_too_few(self):
        with pytest.raises(TooFewValues):
            iqr_outliers([1, 2, 3])

    def test_nulls_ignored_and_never_flagged(self):
        entry = iqr_outliers([None, 1, 2, 3, 4, 100, None])
        assert entry.indices == (5,)

    @pytest.mark.parametrize("values", [[1, 2, 3, 4, math.inf, math.inf],
                                        [-math.inf, None, 1, 2, 3, 4]])
    def test_infinite_value(self, values):
        # Refused before the quartiles, which numpy cannot take of an infinity.
        with pytest.raises(NonFinite, match="^IQR of an infinite value$"):
            iqr_outliers(values)
        s = session_of(list(range(len(values))), eda=values)
        with pytest.raises(NonFinite, match="^IQR of an infinite value$"):
            integrity_report(s, iqr_k=1.5)
        assert integrity_report(s).columns["hardware_bitalino_eda"].outlier_count == 0

    @pytest.mark.parametrize("values", [[-1.7e308, -1.7e308, 1.7e308, 1.7e308],
                                        [1.0, 2.0, 3.0, 1.7e308, 1.7e308]],
                             ids=["interquartile range", "upper fence"])
    def test_fences_that_overflow(self, values):
        # Finite values, refused where numpy overflows, not warned about.
        with pytest.raises(NonFinite, match="^IQR fences overflow double precision$"):
            iqr_outliers(values)
        s = session_of(list(range(len(values))), eda=values)
        with pytest.raises(NonFinite, match="^IQR fences overflow double precision$"):
            integrity_report(s, iqr_k=1.5)

    def test_fences_match_oracle_quantiles(self):
        rng = np.random.default_rng(7)
        values = rng.normal(50, 10, size=40).tolist()
        entry = iqr_outliers(values, k=2.0)
        q1 = oracle_quantile(values, 0.25)
        q3 = oracle_quantile(values, 0.75)
        assert entry.lower == pytest.approx(q1 - 2.0 * (q3 - q1), rel=1e-12)
        assert entry.upper == pytest.approx(q3 + 2.0 * (q3 - q1), rel=1e-12)

    @given(series_st)
    def test_wider_fences_flag_subset(self, values):
        non_null = [v for v in values if v is not None]
        if len(non_null) < 4:
            return
        assert set(iqr_outliers(values, k=3.0).indices) <= \
               set(iqr_outliers(values, k=1.5).indices)

    @given(series_st)
    def test_flagged_values_strictly_outside_fences(self, values):
        non_null = [v for v in values if v is not None]
        if len(non_null) < 4:
            return
        entry = iqr_outliers(values)
        assert entry.lower <= entry.upper
        for i in entry.indices:
            assert values[i] is not None
            assert values[i] < entry.lower or values[i] > entry.upper


class TestImputeMedian:
    def test_simple(self):
        assert impute_median([1, None, 3]) == [1, 2, 3]

    def test_constant(self):
        assert impute_median([7, 7, None]) == [7, 7, 7]

    def test_all_missing(self):
        with pytest.raises(AllMissing):
            impute_median([None, None])

    def test_overflowing_median_is_refused(self):
        with pytest.raises(NonFinite, match="^median imputation overflows double precision$"):
            impute_median([1.7e308, 1.7e308, None])

    @given(series_st)
    def test_non_null_preserved_and_median_stable(self, values):
        non_null = [v for v in values if v is not None]
        if not non_null:
            return
        out = impute_median(values)
        assert len(out) == len(values)
        for original, imputed in zip(values, out):
            if original is not None:
                assert imputed == original
        assert float(np.median(out)) == pytest.approx(float(np.median(non_null)))


class TestInterpolateGaps:
    def test_midpoint(self):
        assert interpolate_gaps([0, None, 2], max_gap=1) == [0, 1, 2]

    def test_run_exceeding_max_gap_untouched(self):
        assert interpolate_gaps([0, None, None, 3], max_gap=1) == [0, None, None, 3]

    def test_edge_run_never_extrapolated(self):
        assert interpolate_gaps([None, 1, 2], max_gap=3) == [None, 1, 2]

    def test_trailing_edge_untouched(self):
        assert interpolate_gaps([1, 2, None], max_gap=3) == [1, 2, None]

    def test_two_sample_gap(self):
        assert interpolate_gaps([0, None, None, 3], max_gap=2) == [0, 1, 2, 3]

    @pytest.mark.parametrize("values, message", [
        ([-1.7e308, None, 1.7e308], "gap interpolation overflows double precision"),
        ([1.0, math.inf, None, 3.0], "gap interpolation of an infinite value"),
    ], ids=["fill overflows", "infinite value"])
    def test_refusals(self, values, message):
        with pytest.raises(NonFinite, match=f"^{message}$"):
            interpolate_gaps(values, max_gap=1)

    @given(st.lists(st.none() | st.floats(-1e300, 1e300), max_size=60), st.integers(-1, 6))
    def test_matches_sample_scan_exactly(self, values, max_gap):
        # finite values only: an infinite value is refused
        assert [repr(v) for v in interpolate_gaps(values, max_gap)] == \
               [repr(v) for v in reference_interpolate_gaps(values, max_gap)]

    @given(series_st, st.integers(0, 5))
    def test_null_pattern_and_bounds(self, values, max_gap):
        out = interpolate_gaps(values, max_gap)
        assert len(out) == len(values)
        n = len(values)
        i = 0
        while i < n:
            if values[i] is not None:
                assert out[i] == values[i]
                i += 1
                continue
            j = i
            while j < n and values[j] is None:
                j += 1
            interior = i > 0 and j < n
            should_fill = interior and (j - i) <= max_gap
            for idx in range(i, j):
                if should_fill:
                    lo = min(values[i - 1], values[j])
                    hi = max(values[i - 1], values[j])
                    assert lo <= out[idx] <= hi
                else:
                    assert out[idx] is None
            i = j


def _repeat_keypoints(spec, n):
    """spec: list of (count, keypoint factory) pairs cycled across n records."""
    out = []
    for count, factory in spec:
        out.extend(factory() for _ in range(count))
    assert len(out) == n
    return out


class TestSentinelScan:
    def test_fig19_style_counts(self):
        # 2600 records; r_wrist: 412 failed detections plus 2119 present but
        # weak, matching the reported 412 / 2531 profile for that part.
        n = 2600
        wrist = _repeat_keypoints([
            (412, sentinel_kp),
            (2119, lambda: kp(100.0, 100.0, 0.3)),
            (69, lambda: kp(100.0, 100.0, 0.9)),
        ], n)
        shoulder = _repeat_keypoints([
            (238, sentinel_kp),
            (1781, lambda: kp(50.0, 60.0, 0.2)),
            (581, lambda: kp(50.0, 60.0, 0.8)),
        ], n)
        keypoints = [{"r_wrist": w, "l_shoulder": s} for w, s in zip(wrist, shoulder)]
        s = session_of(list(range(n)), keypoints=keypoints)
        scan = sentinel_scan(s, confidence_threshold=0.5)

        wrist_x = scan["hardware_skeleton_r_wrist_x"]
        assert wrist_x.minus_one_count == 412
        assert wrist_x.low_confidence_count == 412 + 2119  # 2531
        wrist_conf = scan["hardware_skeleton_r_wrist_confidence"]
        assert wrist_conf.zero_count == 412
        assert wrist_conf.minus_one_count == 0
        assert wrist_conf.low_confidence_count == 0

        reliable = reliable_columns(scan, max_bad=400)
        assert "hardware_skeleton_r_wrist_x" not in reliable          # 412 >= 400
        assert "hardware_skeleton_r_wrist_confidence" not in reliable  # 412 zeros
        assert "hardware_skeleton_l_shoulder_x" not in reliable        # 2019 low-conf
        assert "hardware_skeleton_l_shoulder_confidence" in reliable   # 238 zeros

    def test_all_confident(self):
        s = session_of([0, 1, 2], keypoints=[{"nose": kp(1.0, 2.0, 0.9)}] * 3)
        scan = sentinel_scan(s)
        counts = scan["hardware_skeleton_nose_x"]
        assert (counts.minus_one_count, counts.zero_count, counts.low_confidence_count) \
            == (0, 0, 0)

    def test_minus_one_column(self):
        s = session_of(list(range(10)), keypoints=[{"nose": sentinel_kp()}] * 10)
        assert sentinel_scan(s)["hardware_skeleton_nose_x"].minus_one_count == 10

    def test_bad_threshold(self):
        with pytest.raises(ValueError):
            sentinel_scan(session_of([0]), confidence_threshold=1.5)

    @given(st.permutations(list(range(8))))
    def test_reorder_invariance(self, order):
        keypoints = [{"nose": kp(float(i), float(i), i / 10.0)} for i in range(8)]
        base = session_of(list(range(8)), keypoints=keypoints)
        shuffled = session_of(list(range(8)), keypoints=[keypoints[i] for i in order])
        assert sentinel_scan(base) == sentinel_scan(shuffled)


class TestReliableColumns:
    def test_zero_max_bad_needs_perfection(self):
        s = session_of([0, 1], keypoints=[{"nose": kp(1.0, 2.0, 0.9)},
                                          {"nose": sentinel_kp()}])
        scan = sentinel_scan(s)
        assert reliable_columns(scan, max_bad=0) == []

    def test_all_clean_all_returned(self):
        s = session_of([0, 1], keypoints=[{"nose": kp(1.0, 2.0, 0.9)}] * 2)
        scan = sentinel_scan(s)
        assert set(reliable_columns(scan, max_bad=1)) == set(scan)


class TestIntegrityReport:
    def test_missing_counts(self):
        s = session_of([0, 130, 260, 390], flow=[5, None, None, None],
                       eda=[1, 2, 3, 4])
        report = integrity_report(s)
        assert report.columns["flow"].missing_count == 3
        assert report.columns["hardware_bitalino_eda"].missing_count == 0
        assert report.missing_pct("flow") == pytest.approx(75.0)

    def test_no_nulls_all_zero(self):
        s = session_of([0, 130], flow=[5, 6], eda=[1, 2], delta=[1.0, 130.0],
                       chorus=[1, 1], eeg=[(1, 2, 3, 4)] * 2)
        report = integrity_report(s)
        for name in ("flow", "hardware_bitalino_eda", "sync_delta", "sync_chorus_id"):
            assert report.columns[name].missing_count == 0

    def test_outlier_counts_with_k(self):
        s = session_of(list(range(5)), eda=[1, 2, 3, 4, 100])
        report = integrity_report(s, iqr_k=1.5)
        assert report.columns["hardware_bitalino_eda"].outlier_count == 1

    def test_serializable(self):
        s = session_of([0, 130], flow=[5, None])
        d = integrity_report(s).as_dict()
        assert d["record_count"] == 2
        assert d["columns"]["flow"]["missing_count"] == 1
