import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from musicking_lab import analytics, quality, stats
from musicking_lab._series import median, percentile, runs
from musicking_lab.errors import MusickingError


class TestRuns:
    def test_empty_array_has_no_runs(self):
        starts, ends = runs(np.array([]))
        assert starts.tolist() == [] and ends.tolist() == []

    def test_one_element_is_one_run(self):
        starts, ends = runs(np.array([3.0]))
        assert starts.tolist() == [0] and ends.tolist() == [1]

    def test_each_nan_is_a_run_of_its_own(self):
        starts, ends = runs(np.array([1.0, math.nan, math.nan, 1.0]))
        assert starts.tolist() == [0, 1, 2, 3] and ends.tolist() == [1, 2, 3, 4]

    def test_signed_zeros_are_one_run(self):
        starts, ends = runs(np.array([-0.0, 0.0, 2.0, 2.0]))
        assert starts.tolist() == [0, 2] and ends.tolist() == [2, 4]

    def test_runs_cover_the_array(self):
        starts, ends = runs(np.array([True, True, False, True]))
        assert starts.tolist() == [0, 2, 3] and ends.tolist() == [2, 3, 4]


# Signed zeros, subnormals, the smallest normal and magnitudes up to the
# double maximum, beside any finite float.
_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, -1.0, 1e308, -1e308,
          1.7976931348623157e308, -1.7976931348623157e308]


@st.composite
def samples(draw):
    """1-100 values drawn from a pool of at most 6, so most repeat."""
    pool = draw(st.lists(st.one_of(st.sampled_from(_EDGES),
                                   st.floats(allow_nan=False, allow_infinity=False)),
                         min_size=1, max_size=6))
    return np.array(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=100)))


class TestOrderStatistics:
    """The helpers against numpy's own, compared by ``repr`` so that a
    different zero sign or a last-bit difference shows."""

    @settings(max_examples=500, deadline=None)
    @given(samples())
    def test_same_bits_as_numpy(self, x):
        with np.errstate(all="ignore"):
            for q in ([25, 50, 75], [25, 75]):
                assert repr(percentile(x, q).tolist()) == repr(np.percentile(x, q).tolist())
            assert repr(median(x)) == repr(np.median(x))

    @pytest.mark.parametrize("values", [[-0.0] * 3, [-1.0, -0.0, 2.0], [-0.0] * 4,
                                        [-1.0, -0.0, -0.0, 2.0]],
                             ids=["odd, all -0.0", "odd, -0.0 middle", "even, all -0.0",
                                  "even, -0.0 middles"])
    def test_negative_zero_middles(self, values):
        # numpy takes the mean of the middle values, which sums from +0.0.
        x = np.array(values)
        assert repr(median(x)) == repr(np.median(x))
        assert median(x) == 0.0 and math.copysign(1.0, median(x)) == 1.0
        assert repr(percentile(x, [25, 50, 75]).tolist()) == \
            repr(np.percentile(x, [25, 50, 75]).tolist())

    def test_input_is_left_as_it_was(self):
        x = np.array([3.0, 1.0, 2.0, 0.0])
        percentile(x, [25, 75])
        median(x)
        assert x.tolist() == [3.0, 1.0, 2.0, 0.0]


# Every public function of a nullable series, with settings it accepts, as a
# call on a pair of equally long series x and y.
_SERIES_FUNCTIONS = {
    "describe": lambda x, y: analytics.describe(x),
    "histogram": lambda x, y: analytics.histogram(x, 3),
    "rolling mean": lambda x, y: analytics.rolling_stat(x, 2, "mean"),
    "rolling variance": lambda x, y: analytics.rolling_stat(x, 3, "variance"),
    "detect_peaks": lambda x, y: analytics.detect_peaks(x, 2, 1.0),
    "correlate": lambda x, y: analytics.correlate(x, y),
    "spearman": lambda x, y: analytics.correlate(x, y, "spearman"),
    "correlation_matrix": lambda x, y: analytics.correlation_matrix({"x": x, "y": y}),
    "windowed_correlation": lambda x, y: analytics.windowed_correlation(x, y, 3),
    "occupancy_grid": lambda x, y: analytics.occupancy_grid(x, y, 3, 2),
    "iqr_outliers": lambda x, y: quality.iqr_outliers(x),
    "impute_median": lambda x, y: quality.impute_median(x),
    "interpolate_gaps": lambda x, y: quality.interpolate_gaps(x, 2),
    "anova_oneway": lambda x, y: stats.anova_oneway([x, y]),
}
# Magnitudes whose sums, differences and quotients overflow or underflow.
_EXTREMES = [1.7e308, -1.7e308, 1e308, -1e308, 5e-324, -5e-324, 0.0, -0.0, 1.0, None]


def _pair(n: int):
    series = st.lists(st.sampled_from(_EXTREMES), min_size=n, max_size=n)
    return st.tuples(series, series)


class TestOverflowPolicy:
    """A numpy overflow is refused where it happens, never emitted as a warning."""

    @pytest.mark.parametrize("call", _SERIES_FUNCTIONS.values(), ids=_SERIES_FUNCTIONS)
    @settings(max_examples=150, deadline=None)
    @given(pair=st.integers(0, 12).flatmap(_pair))
    def test_returns_or_refuses_without_a_warning(self, call, pair):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                call(*pair)
            except MusickingError:
                pass
