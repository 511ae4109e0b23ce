import math
import re
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    kp,
    oracle_local_maxima,
    oracle_mean_std,
    oracle_pearson,
    oracle_prominence,
    oracle_quantile,
    oracle_ranks,
    reference_correlate,
    reference_detect_peaks,
    reference_windowed_correlation,
    sentinel_kp,
    session_of,
)
from musicking_lab.analytics import (
    correlate,
    correlation_matrix,
    describe,
    detect_peaks,
    histogram,
    mean_trajectory,
    occupancy_grid,
    rolling_stat,
    seconds_to_samples,
    windowed_correlation,
)
from musicking_lab.errors import (
    DegenerateSeries,
    EmptySeries,
    NonFinite,
    NoValidPoints,
    TooFewPairs,
    UnknownPart,
)

finite = st.floats(-1e6, 1e6, allow_nan=False)
series_st = st.lists(st.none() | finite, max_size=50)
moderate = finite.filter(lambda v: abs(v) >= 1e-6)
# 0, or normal doubles whose halves are normal too, in a range whose
# differences stay below the largest double; -1 is the sentinel.
normal_coordinate = (st.just(0.0) | st.floats(2.0**-1021, 8e307)
                     | st.floats(-8e307, -2.0**-1021)).filter(lambda v: v != -1.0)


class TestDescribe:
    def test_hand_example(self):
        s = describe([1, 2, 3, 4])
        assert s.mean == 2.5 and s.median == 2.5
        assert s.std == pytest.approx(1.2909944487358056)

    def test_constant(self):
        s = describe([9, 9, 9])
        assert s.std == 0.0
        assert s.min == s.median == s.max == 9

    def test_empty(self):
        with pytest.raises(EmptySeries):
            describe([None, None])

    @pytest.mark.parametrize("values", [[1, math.inf], [None, -math.inf, 2.0]])
    def test_infinite_value(self, values):
        with pytest.raises(NonFinite, match="^describe of an infinite value$") as exc:
            describe(values)
        assert exc.type is NonFinite

    def test_sum_that_overflows(self):
        # The mean is representable; the sum behind it is not.
        with pytest.raises(NonFinite, match="^describe overflows double precision$"):
            describe([1.7e308] * 3)

    def test_single_value(self):
        s = describe([4])
        assert s.count == 1 and s.std == 0.0

    def test_matches_oracles(self):
        rng = np.random.default_rng(11)
        values = rng.normal(100, 15, size=37).tolist()
        s = describe(values)
        mean, std = oracle_mean_std(values)
        assert s.mean == pytest.approx(mean, rel=1e-12)
        assert s.std == pytest.approx(std, rel=1e-12)
        for q, got in ((0.25, s.q25), (0.5, s.median), (0.75, s.q75)):
            assert got == pytest.approx(oracle_quantile(values, q), rel=1e-12)

    @given(st.lists(finite, min_size=1, max_size=40), st.randoms())
    def test_order_invariance(self, values, rnd):
        shuffled = list(values)
        rnd.shuffle(shuffled)
        a, b = describe(values), describe(shuffled)
        # quantiles/min/max sort first, so they match exactly; mean and std
        # accumulate in a different order and only match to rounding
        assert (a.count, a.min, a.q25, a.median, a.q75, a.max) == \
               (b.count, b.min, b.q25, b.median, b.q75, b.max)
        assert a.mean == pytest.approx(b.mean, rel=1e-12, abs=1e-12)
        assert a.std == pytest.approx(b.std, rel=1e-9, abs=1e-12)


class TestHistogram:
    def test_two_bins(self):
        assert histogram([0, 1, 2, 3], 2) == [(0.0, 1.5, 2), (1.5, 3.0, 2)]

    def test_constant_one_bin_holds_all(self):
        bins = histogram([5, 5, 5], 4)
        assert len(bins) == 4
        assert sorted(c for _, _, c in bins) == [0, 0, 0, 3]

    def test_uniform_unit_counts(self):
        assert [c for _, _, c in histogram(list(range(10)), 10)] == [1] * 10

    def test_right_edge_inclusive(self):
        bins = histogram([0.0, 1.0], 2)
        assert bins[-1][2] == 1

    def test_range_too_narrow_at_its_magnitude(self):
        # Two values an ulp apart near 1e300 leave no room for 20 distinct edges.
        with pytest.raises(DegenerateSeries, match="Too many bins"):
            histogram([1e300, 1.0000000000000002e300], 20)

    def test_infinite_value(self):
        with pytest.raises(NonFinite):
            histogram([1.0, math.inf], 4)

    def test_range_that_overflows(self):
        with pytest.raises(NonFinite, match="^histogram range overflows double precision$"):
            histogram([-1.7e308, 1.7e308], 4)

    @given(st.lists(st.none() | finite, min_size=1, max_size=60),
           st.integers(1, 12))
    def test_counts_sum_to_non_null(self, values, bins):
        non_null = [v for v in values if v is not None]
        if not non_null:
            return
        assert sum(c for _, _, c in histogram(values, bins)) == len(non_null)


class TestRollingStat:
    def test_mean_window_two(self):
        assert rolling_stat([1, 2, 3, 4], 2, "mean") == [None, 1.5, 2.5, 3.5]

    def test_variance_of_constant_is_zero(self):
        out = rolling_stat([7.0] * 6, 3, "variance")
        assert out[:2] == [None, None]
        assert out[2:] == [0.0] * 4

    def test_ten_second_window_at_inferred_rate(self):
        assert seconds_to_samples(10.0, 7.683257937395139) == 77

    def test_window_beyond_the_largest_double(self):
        with pytest.raises(NonFinite, match=r"^1e\+308 s at 7\.683257937395139 Hz is not a "
                                            r"finite sample count$"):
            seconds_to_samples(1e308, 7.683257937395139)
        # A finite product still rounds, to a window no series fills.
        window = seconds_to_samples(1e300, 7.683257937395139)
        assert window == round(1e300 * 7.683257937395139)
        assert rolling_stat([1.0, 2.0, 3.0], window, "variance") == [None] * 3

    def test_nulls_skipped(self):
        out = rolling_stat([1.0, None, 3.0], 3, "mean")
        assert out[2] == 2.0

    def test_all_null_window(self):
        assert rolling_stat([None, None, 1.0], 2, "mean")[1] is None

    def test_variance_needs_two_values(self):
        assert rolling_stat([1.0, None, None], 2, "variance") == [None, None, None]

    def test_short_series_all_null(self):
        assert rolling_stat([1.0, 2.0], 5, "mean") == [None, None]

    def test_nan_statistic_is_not_null(self):
        # An infinite value is refused, as describe and histogram refuse it,
        # so no window's statistic is NaN (inf - inf) or infinite.
        for values, kind in (([math.inf, -math.inf, 1.0], "mean"),
                             ([1.0, math.inf, None], "variance"),
                             ([-math.inf], "mean")):
            with pytest.raises(NonFinite, match=f"^rolling {kind} of an infinite value$"):
                rolling_stat(values, 2, kind)

    @pytest.mark.parametrize("kind, values", [
        ("variance", [1e300, 5e300, 1e300, 5e300]),
        ("mean", [1.7e308, 1.7e308, None]),
    ])
    def test_overflow_is_refused(self, kind, values):
        with pytest.raises(NonFinite, match=f"^rolling {kind} overflows double precision$"):
            rolling_stat(values, 2, kind)

    @given(st.lists(finite, min_size=1, max_size=40), st.integers(1, 6))
    def test_matches_naive_windows(self, values, w):
        out = rolling_stat(values, w, "mean")
        for i, got in enumerate(out):
            if i < w - 1:
                assert got is None
            else:
                window = values[i - w + 1:i + 1]
                assert got == pytest.approx(sum(window) / w, rel=1e-9, abs=1e-9)

    @given(st.floats(-100, 100, allow_nan=False), st.integers(1, 5))
    def test_constant_mean_is_constant(self, c, w):
        out = rolling_stat([c] * 10, w, "mean")
        assert all(v == pytest.approx(c) for v in out[w - 1:])


def naive_detect(values, min_distance, min_prominence):
    """Independent pipeline: brute-force maxima, greedy suppress, filter."""
    maxima = oracle_local_maxima(values)
    kept = []
    for peak in sorted(maxima, key=lambda p: (-values[p], p)):
        if all(abs(peak - other) >= min_distance for other in kept):
            kept.append(peak)
    return sorted(p for p in kept if oracle_prominence(values, p) >= min_prominence)


class TestDetectPeaks:
    def test_two_clear_peaks(self):
        peaks = detect_peaks([0, 1, 0, 2, 0], 1, 0.5)
        assert peaks.indices == (1, 3)
        assert peaks.prominences == (1.0, 2.0)

    def test_monotone_has_no_peaks(self):
        assert detect_peaks([1, 2, 3, 4]).indices == ()

    def test_distance_suppression(self):
        assert detect_peaks([0, 5, 0, 4, 0], 3, 0.0).indices == (1,)

    def test_plateau_reports_leftmost(self):
        assert detect_peaks([0, 2, 2, 0]).indices == (1,)

    def test_plateau_that_keeps_rising_is_not_a_peak(self):
        assert detect_peaks([0, 2, 2, 3, 0]).indices == (3,)

    def test_prominence_on_shoulder(self):
        # tall peak on a high shoulder has tiny prominence
        values = [9.9, 10.0, 3.0, 9.0, 0.0]
        peaks = detect_peaks(values, 1, 0.0)
        by_index = dict(zip(peaks.indices, peaks.prominences))
        assert by_index[1] == pytest.approx(0.1)
        assert by_index[3] == pytest.approx(6.0)

    def test_nulls_split_series(self):
        peaks = detect_peaks([0, 5, None, 4, 0], 1, 0.0)
        assert peaks.indices == ()  # both runs are edge-monotone pieces

    def test_tied_heights_suppress_in_index_order(self):
        # 20 peaks of height 1, then 20 of height 2, two samples apart: more
        # ties than a sort keeps in order by insertion sort alone, and which
        # peaks survive distance 3 depends only on the order ties are visited
        values = [0.0] + [v for h in [1.0] * 20 + [2.0] * 20 for v in (h, 0.0)]
        peaks = detect_peaks(values, 3, 0.0)
        assert peaks.indices == tuple(range(1, 81, 4))
        assert list(peaks.indices) == naive_detect(values, 3, 0.0)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 8).map(float), min_size=3, max_size=25),
           st.integers(1, 5), st.floats(0, 4, allow_nan=False))
    def test_matches_naive_pipeline(self, values, dist, prom):
        assert list(detect_peaks(values, dist, prom).indices) == \
               naive_detect(values, dist, prom)

    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.none() | st.integers(0, 6) | st.sampled_from([2.5, -0.0, -math.inf])
                    | st.floats(allow_nan=False), max_size=40),
           st.integers(1, 6), st.sampled_from([0.0, 0.5, 3.0]) | st.floats(0, 1e308))
    def test_matches_scans_with_nulls(self, values, dist, prom):
        # nulls, plateaus, non-integral values and +-inf, against the
        # segment and plateau scans; numpy scalar overflow warnings of the
        # scans are not under test.  A prominence of finite values that
        # overflows is refused where the scans give inf.
        with np.errstate(all="ignore"):
            indices, prominences = reference_detect_peaks(values, dist, prom)
        try:
            peaks = detect_peaks(values, dist, prom)
        except NonFinite:
            assert math.inf in prominences
            return
        assert peaks.indices == indices
        assert [repr(p) for p in peaks.prominences] == [repr(p) for p in prominences]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 8).map(float), min_size=3, max_size=25),
           st.integers(1, 4))
    def test_neighbor_shape_and_spacing(self, values, dist):
        peaks = detect_peaks(values, dist, 0.0)
        for i in peaks.indices:
            assert values[i] > values[i - 1]
            assert values[i] >= values[i + 1]
        for a, b in zip(peaks.indices, peaks.indices[1:]):
            assert b - a >= dist

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 8).map(float), min_size=3, max_size=25),
           st.integers(1, 4),
           st.floats(0, 3, allow_nan=False), st.floats(0, 3, allow_nan=False))
    def test_raising_prominence_never_adds(self, values, dist, p1, p2):
        lo, hi = min(p1, p2), max(p1, p2)
        assert set(detect_peaks(values, dist, hi).indices) <= \
               set(detect_peaks(values, dist, lo).indices)

    def test_prominence_that_overflows_is_refused(self):
        # A Python-float subtraction overflows to inf without a warning.
        with pytest.raises(NonFinite, match="^peak prominence overflows double precision$"):
            detect_peaks([-1.7e308, 1.7e308, -1.7e308])


class TestCorrelate:
    def test_exact_linearity(self):
        assert correlate([1, 2, 3], [2, 4, 6]) == 1.0

    def test_spearman_monotone(self):
        assert correlate([1, 2, 3], [1, 4, 9], "spearman") == 1.0

    def test_hand_value(self):
        assert correlate([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8)

    def test_pairwise_deletion(self):
        r = correlate([1, None, 2, 3, 4], [2, 9, 4, None, 8])
        assert r == pytest.approx(oracle_pearson([1, 2, 4], [2, 4, 8]))

    def test_too_few_pairs(self):
        with pytest.raises(TooFewPairs):
            correlate([1, 2, None], [1, None, 3])

    def test_degenerate(self):
        with pytest.raises(DegenerateSeries):
            correlate([1, 1, 1], [1, 2, 3])

    def test_spearman_ties_use_midranks(self):
        x = [1, 2, 2, 3]
        got = correlate(x, [4, 5, 6, 7], "spearman")
        rx, ry = oracle_ranks(x), oracle_ranks([4, 5, 6, 7])
        assert got == pytest.approx(oracle_pearson(rx, ry))

    @given(st.lists(finite, min_size=3, max_size=30))
    def test_self_correlation(self, x):
        scale = max(max(abs(v) for v in x), 1.0)
        if max(x) - min(x) < 1e-9 * scale:
            return  # numerically constant: cancellation swamps the signal
        assert correlate(x, x) == pytest.approx(1.0)

    @given(st.lists(st.floats(-1e4, 1e4, allow_nan=False), min_size=3, max_size=30),
           st.floats(-100, 100, allow_nan=False).filter(lambda a: abs(a) > 0.01),
           st.floats(-100, 100, allow_nan=False))
    def test_affine_response(self, x, a, b):
        if max(x) - min(x) < 1e-3:
            return
        y = [a * v + b for v in x]
        assert correlate(x, y) == pytest.approx(math.copysign(1.0, a), abs=1e-9)

    @given(st.lists(st.tuples(finite, finite), min_size=3, max_size=30),
           st.floats(0.1, 50, allow_nan=False), st.floats(-50, 50, allow_nan=False))
    def test_pearson_positive_affine_invariance(self, pairs, scale, shift):
        x = [p[0] for p in pairs]
        y = [p[1] for p in pairs]
        # both series need spread that survives the transform's rounding
        for values, extra in ((x, abs(shift) / scale), (y, 0.0)):
            magnitude = max(max(abs(v) for v in values), extra, 1.0)
            if max(values) - min(values) < 1e-6 * magnitude:
                return
        r1 = correlate(x, y)
        r2 = correlate([scale * v + shift for v in x], y)
        assert r1 == pytest.approx(r2, abs=1e-6)

    @pytest.mark.parametrize("x, y, expected", [
        # the sum of squares of x overflows unless the deviations are scaled
        ([1e300, 2e300, -1e300, 4.0], [1.0, 2.0, 3.0, 5.0], -0.5291502622129182),
        # ... and underflows to zero here
        ([1e-200, 2e-200, 3e-200, 5e-200], [1.0, 2.0, 4.0, 3.0], 0.680336051416609),
    ])
    def test_extreme_scales(self, x, y, expected):
        assert correlate(x, y) == pytest.approx(expected, rel=1e-12)
        assert correlate(x, y) == pytest.approx(mpmath_pearson(x, y), rel=1e-12)

    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.tuples(st.integers(-50, 50), st.integers(-50, 50)), min_size=3,
                    max_size=20),
           st.integers(-100, 100), st.floats(1e-300, 1e300), st.floats(1e-300, 1e300))
    def test_matches_mpmath_across_finite_domain(self, units, x_offset, x_scale, y_scale):
        # integer patterns, off centre, at any scale the float range holds
        x = [(u + x_offset) * x_scale for u, _ in units]
        y = [v * y_scale for _, v in units]
        expected = mpmath_pearson(x, y)
        if expected is None or abs(expected) < 0.1:
            return  # constant, or r near 0 cancels in the sum of products
        assert correlate(x, y) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("x, y", [
        ([1, 2, math.inf, 4], [1, 2, 3, 5]),
        ([1, 2, 3, 4], [1, -math.inf, 3, 5]),
        ([1, 2, math.inf, 4], [1, 2, -math.inf, 5]),
        ([math.inf, 2, 3, 4], [math.inf, 2, 3, 5]),
    ])
    def test_non_finite_value_gives_no_coefficient(self, x, y):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateSeries):
                correlate(x, y)
            assert correlation_matrix({"x": x, "y": y}).values[0][1] is None
            assert windowed_correlation(x, y, 4) == [(0, None)]


def mpmath_pearson(x, y):
    """Pearson r of the exact float inputs at 50 digits; None if undefined."""
    with mpmath.workdps(50):
        xs, ys = [mpmath.mpf(v) for v in x], [mpmath.mpf(v) for v in y]
        mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
        sx = sum((v - mx) ** 2 for v in xs)
        sy = sum((v - my) ** 2 for v in ys)
        if sx == 0 or sy == 0:
            return None
        return float(sum((a - mx) * (b - my) for a, b in zip(xs, ys)) / mpmath.sqrt(sx * sy))


class TestCorrelationMatrix:
    def test_identical_columns(self):
        m = correlation_matrix({"a": [1, 2, 3], "b": [1, 2, 3]})
        assert m.values[0][1] == pytest.approx(1.0)

    def test_negation(self):
        m = correlation_matrix({"a": [1, 2, 3], "b": [-1, -2, -3]})
        assert m.values[0][1] == pytest.approx(-1.0)

    def test_symmetric_unit_diagonal(self):
        rng = np.random.default_rng(3)
        cols = {name: rng.normal(size=20).tolist() for name in "abcd"}
        m = correlation_matrix(cols)
        for i in range(4):
            assert m.values[i][i] == 1.0
            for j in range(4):
                assert m.values[i][j] == m.values[j][i]

    def test_degenerate_cell_is_none(self):
        m = correlation_matrix({"a": [1, 1, 1], "b": [1, 2, 3]})
        assert m.values[0][1] is None
        assert m.values[0][0] == 1.0

    def test_shared_signal_channels(self):
        rng = np.random.default_rng(0)
        base = np.cumsum(rng.normal(size=400))
        cols = {f"ch{i}": (base + 0.05 * base.std() * rng.normal(size=400)).tolist()
                for i in range(4)}
        m = correlation_matrix(cols)
        for i in range(4):
            for j in range(i + 1, 4):
                assert m.values[i][j] > 0.9

    def test_needs_two_columns(self):
        with pytest.raises(ValueError):
            correlation_matrix({"a": [1, 2, 3]})

    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 5).flatmap(lambda c: st.integers(0, 12).flatmap(lambda n: st.lists(
               st.lists(st.none() | st.sampled_from([0.0, -0.0, 1.0, 3.0]) | moderate,
                        min_size=n, max_size=n)
               | st.tuples(moderate | st.just(-0.0),
                           st.lists(st.booleans(), min_size=n, max_size=n)).map(
                   lambda drawn: [None if null else drawn[0] for null in drawn[1]]),
               min_size=c, max_size=c))),
           st.sampled_from(["pearson", "spearman"]))
    def test_matches_pairwise_reference(self, columns, method):
        # Random nulls give the pairs different complete counts, some below
        # 3; the second kind of column is constant apart from its nulls.
        m = correlation_matrix({f"c{i}": col for i, col in enumerate(columns)}, method)
        for i, a in enumerate(columns):
            assert m.values[i][i] == 1.0
            for j, b in enumerate(columns):
                if i == j:
                    continue
                try:
                    expected = reference_correlate(a, b, method)
                except (TooFewPairs, DegenerateSeries):
                    expected = None
                assert repr(m.values[i][j]) == repr(expected)


class TestWindowedCorrelation:
    def test_identical_series_all_one(self):
        x = list(range(10))
        out = windowed_correlation(x, x, 4)
        assert [r for _, r in out] == pytest.approx([1.0] * len(out))

    def test_constant_window_is_none(self):
        x = [1.0, 1.0, 1.0, 4.0, 5.0, 6.0]
        out = dict(windowed_correlation(x, [1, 2, 3, 4, 5, 6], 3))
        assert out[0] is None
        assert out[3] == pytest.approx(1.0)

    def test_coupled_window_detected(self):
        rng = np.random.default_rng(5)
        n, w = 120, 30
        x = rng.normal(size=n)
        y = rng.normal(size=n)
        y[40:70] = 2.0 * x[40:70] + 0.01 * rng.normal(size=30)
        out = dict(windowed_correlation(x.tolist(), y.tolist(), w, step_samples=10))
        assert out[40] > 0.99
        assert abs(out[0]) < 0.5 and abs(out[90]) < 0.5

    def test_window_starts_step(self):
        out = windowed_correlation(list(range(10)), list(range(10)), 3, step_samples=4)
        assert [start for start, _ in out] == [0, 4]

    def test_window_too_small(self):
        with pytest.raises(ValueError):
            windowed_correlation([1, 2, 3], [1, 2, 3], 2)

    def test_series_shorter_than_window(self):
        assert windowed_correlation([1, 2, 3], [1, 2, 3], 4) == []
        assert windowed_correlation([], [], 3, method="spearman") == []

    def test_non_finite_window_is_none(self):
        x = [1.0, 2.0, math.inf, 4.0, 5.0, 7.0]
        out = windowed_correlation(x, [1, 2, 3, 5, 4, 6], 3)
        assert out[:3] == [(0, None), (1, None), (2, None)]
        assert out[3] == (3, pytest.approx(oracle_pearson([4, 5, 7], [5, 4, 6])))

    @settings(max_examples=400, deadline=None)
    @given(st.integers(0, 60).flatmap(lambda n: st.tuples(
               st.lists(st.none() | st.sampled_from([0.0, -0.0, 1.0, 3.0]) | moderate,
                        min_size=n, max_size=n),
               st.lists(st.none() | st.sampled_from([0.0, -0.0, 2.0]) | moderate,
                        min_size=n, max_size=n))),
           st.integers(3, 12), st.integers(1, 5), st.sampled_from(["pearson", "spearman"]))
    def test_matches_per_window_reference(self, series, w, step, method):
        # nulls in either series, windows of fewer than 3 complete pairs,
        # constant windows and signed zeros, against one scalar call per
        # window; repr tells -0.0 from 0.0.  Values of moderate scale keep
        # the reference's sums from under- or overflowing, where the kernel
        # is meant to differ.
        x, y = series
        got = windowed_correlation(x, y, w, step, method)
        expected = reference_windowed_correlation(x, y, w, step, method)
        assert [repr(pair) for pair in got] == [repr(pair) for pair in expected]

        def outcome(f):
            try:
                return repr(f(x, y, method))
            except (TooFewPairs, DegenerateSeries) as exc:
                return type(exc).__name__

        assert outcome(correlate) == outcome(reference_correlate)


class TestMeanTrajectory:
    def test_two_parts(self):
        s = session_of([0], keypoints=[{"nose": kp(10.0, 20.0), "neck": kp(30.0, 40.0)}])
        mx, my = mean_trajectory(s, ["nose", "neck"])
        assert mx == [20.0] and my == [30.0]

    def test_sentinel_part_ignored(self):
        s = session_of([0], keypoints=[{"nose": sentinel_kp(), "neck": kp(30.0, 40.0)}])
        mx, my = mean_trajectory(s, ["nose", "neck"])
        assert mx == [30.0] and my == [40.0]

    def test_all_sentinel_yields_none(self):
        s = session_of([0], keypoints=[{"nose": sentinel_kp()}])
        mx, my = mean_trajectory(s, ["nose"])
        assert mx == [None] and my == [None]

    def test_sum_that_overflows(self):
        s = session_of([0], keypoints=[{"nose": kp(1.7e308, 1.0), "neck": kp(1.7e308, 1.0)}])
        with pytest.raises(NonFinite, match="^mean trajectory overflows double precision$"):
            mean_trajectory(s, ["nose", "neck"])

    def test_unknown_part(self):
        with pytest.raises(UnknownPart):
            mean_trajectory(session_of([0]), ["hip"])

    def test_empty_parts(self):
        with pytest.raises(UnknownPart):
            mean_trajectory(session_of([0]), [])


class TestOccupancyGrid:
    def test_single_location(self):
        out = occupancy_grid([5.0] * 4, [7.0] * 4, 2, 2)
        assert out.sum() == 4
        assert out[0, 0] == 4

    def test_uniform_four_by_four(self):
        xs = [float(x) for x in range(4) for _ in range(4)]
        ys = [float(y) for _ in range(4) for y in range(4)]
        out = occupancy_grid(xs, ys, 4, 4)
        assert (out == 1).all()

    def test_all_sentinel(self):
        with pytest.raises(NoValidPoints):
            occupancy_grid([-1.0, -1.0], [-1.0, -1.0], 2, 2)

    def test_shape_and_total(self):
        rng = np.random.default_rng(9)
        xs = rng.uniform(0, 640, 100).tolist() + [-1.0] * 5
        ys = rng.uniform(0, 480, 100).tolist() + [-1.0] * 5
        out = occupancy_grid(xs, ys, 8, 6)
        assert out.shape == (6, 8)
        assert out.sum() == 100

    def test_bad_dims(self):
        with pytest.raises(ValueError):
            occupancy_grid([1.0], [1.0], 0, 2)

    @pytest.mark.parametrize("xs, ys", [
        ([0.0, math.inf], [0.0, 1.0]),
        ([0.0, 1.0, None], [-math.inf, 1.0, 2.0]),
    ])
    def test_infinite_coordinate(self, xs, ys):
        with pytest.raises(NonFinite):
            occupancy_grid(xs, ys, 2, 2)

    def test_infinite_coordinate_of_an_invalid_point_is_ignored(self):
        out = occupancy_grid([0.0, 1.0, math.inf], [0.0, 1.0, None], 2, 2)
        assert out.sum() == 2

    @pytest.mark.parametrize("xs", [
        [-1e308, 1e308],
        [-sys.float_info.max, sys.float_info.max],
    ], ids=["wide", "widest"])
    def test_range_wider_than_the_largest_double(self, xs):
        out = occupancy_grid(xs, [0.0, 1.0], 2, 2)
        assert out.tolist() == [[1, 0], [0, 1]]

    @given(st.lists(normal_coordinate, min_size=1, max_size=40), st.integers(1, 12))
    @settings(max_examples=300, deadline=None)
    def test_cells_match_direct_differences_over_normal_coordinates(self, xs, n):
        # Halving is exact in this range, so the cells are those of the
        # direct differences, which do not overflow here.
        coords = np.array(xs)
        lo, hi = coords.min(), coords.max()
        if hi == lo:
            expected = np.zeros(coords.size, dtype=int)
        else:
            expected = np.minimum(((coords - lo) / (hi - lo) * n).astype(int), n - 1)
        # Each value's cell, one point at a time against the set's range.
        for x, cell in zip(xs, expected.tolist()):
            grid = occupancy_grid([lo, hi, x], [0.0, 0.0, 1.0], n, 2)
            assert grid[1].tolist().index(1) == cell


METHOD_MESSAGE = "method must be 'pearson' or 'spearman', got 'kendall'"


@pytest.mark.parametrize("call, message", [
    (lambda: histogram([1.0], 0), "bins must be >= 1, got 0"),
    (lambda: rolling_stat([1.0], 0), "window_samples must be >= 1, got 0"),
    (lambda: rolling_stat([1.0], 1, "median"), "kind must be 'mean' or 'variance', got 'median'"),
    (lambda: detect_peaks([1.0], 0), "min_distance_samples must be >= 1, got 0"),
    (lambda: detect_peaks([1.0], 1, -0.5), "min_prominence must be >= 0, got -0.5"),
    (lambda: windowed_correlation([1, 2, 3], [1, 2, 3], 3, 0), "step_samples must be >= 1, got 0"),
    (lambda: correlate([1, 2, 3], [1, 2]), "length mismatch: 3 vs 2"),
    (lambda: correlation_matrix({"a": [1, 2], "b": [1, 2], "c": [1, 2, 3]}),
     "length mismatch: 2 vs 3"),
    (lambda: windowed_correlation([1, 2, 3], [1, 2], 3), "length mismatch: 3 vs 2"),
    (lambda: occupancy_grid([1.0], [1.0, 2.0], 2, 2), "length mismatch: 1 vs 2"),
    (lambda: correlate([1, 2, 3], [1, 2, 3], "kendall"), METHOD_MESSAGE),
    (lambda: correlation_matrix({"a": [1], "b": [1, 2]}, "kendall"), METHOD_MESSAGE),
    (lambda: windowed_correlation([1, 2], [1, 2], 3, method="kendall"), METHOD_MESSAGE),
], ids=["bins", "window", "kind", "min-distance", "prominence", "step", "correlate-lengths",
        "matrix-lengths", "windowed-lengths", "grid-lengths", "correlate-method",
        "matrix-method-before-lengths", "windowed-method-on-short-series"])
def test_argument_refusals(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as exc:
        call()
    assert exc.type is ValueError
