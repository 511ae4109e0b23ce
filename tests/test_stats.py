import math
import re

import mpmath
import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import example, given, settings, strategies as st

from helpers import oracle_anova_f
from musicking_lab.errors import (
    DegenerateVariance,
    InsufficientData,
    MusickingError,
    NoConvergence,
    NonFinite,
    TooFewGroups,
)
from musicking_lab.stats import anova_oneway, f_survival, regularized_incomplete_beta


class TestIncompleteBeta:
    @settings(max_examples=300, deadline=None)
    @given(st.floats(0.05, 50.0), st.floats(0.05, 50.0), st.floats(0.0, 1.0))
    def test_matches_scipy(self, a, b, x):
        ours = regularized_incomplete_beta(a, b, x)
        ref = float(scipy.special.betainc(a, b, x))
        assert ours == pytest.approx(ref, rel=1e-10, abs=1e-13)

    def test_large_dof(self):
        # shapes like the full-dataset ANOVA: df2 ~ 1e5 / 2
        ours = regularized_incomplete_beta(50000.0, 12.0, 0.999)
        ref = float(scipy.special.betainc(50000.0, 12.0, 0.999))
        assert ours == pytest.approx(ref, rel=1e-9)

    def test_endpoints(self):
        assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0

    def test_domain(self):
        with pytest.raises(ValueError):
            regularized_incomplete_beta(1.0, 1.0, 1.5)

    def test_no_convergence_is_a_refusal(self):
        # The continued fraction needs more than its 1,000 iterations here.
        with pytest.raises(NoConvergence, match="^incomplete beta did not converge") as exc:
            regularized_incomplete_beta(1e7, 1e7, 0.5)
        assert issubclass(exc.type, MusickingError)
        assert not issubclass(exc.type, InsufficientData)


# Below this survival probability scipy's F.sf itself drifts past 1e-9
# relative error (0.4% at f = 71.91, df = (30, 2000)), so the far tail is
# checked against the incomplete beta at 50 digits instead.
FAR_TAIL = 1e-250


def mpmath_f_survival(f: float, df1: int, df2: int) -> float:
    with mpmath.workdps(50):
        f, df1, df2 = mpmath.mpf(f), mpmath.mpf(df1), mpmath.mpf(df2)
        return float(mpmath.betainc(df2 / 2, df1 / 2, 0, df2 / (df2 + df1 * f),
                                    regularized=True))


class TestFSurvival:
    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.0, 500.0), st.integers(1, 30), st.integers(2, 2000))
    @example(2.2e-16, 1, 2)       # x = df2 / (df2 + df1 f) rounds to 1
    @example(71.91, 30, 2000)     # far tail
    def test_matches_scipy(self, f, df1, df2):
        ref = float(scipy.stats.f.sf(f, df1, df2))
        if ref < FAR_TAIL:
            ref = mpmath_f_survival(f, df1, df2)
        assert f_survival(f, df1, df2) == pytest.approx(ref, rel=1e-9, abs=1e-300)

    def test_near_zero_f(self):
        assert f_survival(2.2e-16, 1, 2) == pytest.approx(0.99999998951191, rel=1e-12)
        assert f_survival(5e-324, 1, 2) == 1.0

    def test_monotone_in_f(self):
        values = [f_survival(f, 4, 40) for f in (0.0, 0.5, 1.0, 2.0, 5.0, 20.0)]
        assert values == sorted(values, reverse=True)

    def test_zero_f(self):
        assert f_survival(0.0, 3, 10) == 1.0

    def test_underflow_reports_zero(self):
        assert f_survival(1e6, 24, 90000) == 0.0


class TestAnovaOneway:
    def test_hand_example(self):
        result = anova_oneway([[1, 2], [5, 6]])
        assert result.f_statistic == 32.0
        assert result.df_between == 1 and result.df_within == 2
        assert result.p_value == pytest.approx(0.029857499854668, rel=1e-9)
        assert result.group_means == (1.5, 5.5)
        assert result.grand_mean == 3.5

    def test_equal_means_give_zero_f(self):
        result = anova_oneway([[1, 2, 3], [1, 2, 3], [1, 2, 3]])
        assert result.f_statistic == 0.0
        assert result.p_value == 1.0

    def test_matches_scipy_f_oneway(self):
        rng = np.random.default_rng(21)
        groups = [rng.normal(loc, 1.0, size=n).tolist()
                  for loc, n in ((0.0, 11), (0.4, 17), (1.0, 8))]
        result = anova_oneway(groups)
        ref = scipy.stats.f_oneway(*groups)
        assert result.f_statistic == pytest.approx(float(ref.statistic), rel=1e-12)
        assert result.p_value == pytest.approx(float(ref.pvalue), rel=1e-9)

    def test_nulls_stripped(self):
        result = anova_oneway([[1, None, 2], [5, 6, None]])
        assert result.f_statistic == 32.0

    def test_too_few_groups(self):
        with pytest.raises(TooFewGroups):
            anova_oneway([[1, 2, 3]])

    def test_tiny_group(self):
        with pytest.raises(TooFewGroups):
            anova_oneway([[1, 2], [5]])

    def test_degenerate_variance(self):
        with pytest.raises(DegenerateVariance):
            anova_oneway([[1, 1], [2, 2]])

    @pytest.mark.parametrize("sizes", [(40, 42), (40, 40)])
    def test_overflowing_sums_of_squares(self, sizes):
        # F is NaN (inf / inf) for unequal groups and a spurious 0 for equal ones.
        groups = [[10**300 * (1 + i % 5) for i in range(n)] for n in sizes]
        with pytest.raises(NonFinite, match="^ANOVA overflows double precision$"):
            anova_oneway(groups)

    @pytest.mark.parametrize("groups", [
        [[0, 0, 0, 2.97e-162], [0, 0, 0, 2.97e-162]],
        [[0, 0, 0, 2.97e-162], [1, 1, 1, 1]],
    ], ids=["both mean squares", "within mean square"])
    def test_mean_square_that_underflows(self, groups):
        # The within-group sum of squares is the least subnormal; divided by
        # its degrees of freedom it rounds to 0, so F is 0 / 0 or beyond range.
        with pytest.raises(NonFinite, match="^ANOVA overflows double precision$"):
            anova_oneway(groups)

    @pytest.mark.parametrize("groups, group", [
        ([[1, 2], [3, math.inf]], 1),
        ([[-math.inf, 2, None], [3, 4]], 0),
    ])
    def test_infinite_value(self, groups, group):
        message = f"ANOVA group {group} of an infinite value"
        with pytest.raises(NonFinite, match=f"^{re.escape(message)}$") as exc:
            anova_oneway(groups)
        assert exc.type is NonFinite

    def test_unbalanced_sizes(self):
        groups = [[1.0, 2.0, 3.0], [4.0, 5.0], [7.0, 8.0, 9.0, 10.0]]
        f, df1, df2 = oracle_anova_f(groups)
        result = anova_oneway(groups)
        assert result.f_statistic == pytest.approx(f, rel=1e-12)
        assert (result.df_between, result.df_within) == (df1, df2)

    @given(st.floats(-50, 50, allow_nan=False))
    def test_shift_invariance(self, shift):
        base = [[1.0, 2.0, 4.0], [3.0, 5.0, 8.0]]
        shifted = [[v + shift for v in g] for g in base]
        assert anova_oneway(shifted).f_statistic == pytest.approx(
            anova_oneway(base).f_statistic, rel=1e-6)

    @given(st.floats(0.01, 50).filter(lambda s: abs(s) > 0.01))
    def test_scale_invariance(self, scale):
        base = [[1.0, 2.0, 4.0], [3.0, 5.0, 8.0]]
        scaled = [[v * scale for v in g] for g in base]
        assert anova_oneway(scaled).f_statistic == pytest.approx(
            anova_oneway(base).f_statistic, rel=1e-6)

    @given(st.randoms())
    def test_within_group_permutation_invariance(self, rnd):
        groups = [[1.0, 5.0, 2.0, 8.0], [0.5, 3.5, 9.0]]
        shuffled = [list(g) for g in groups]
        for g in shuffled:
            rnd.shuffle(g)
        assert anova_oneway(shuffled) == anova_oneway(groups)

    def test_f_invariant_and_p_monotone(self):
        rng = np.random.default_rng(3)
        f_values = []
        for separation in (0.0, 0.5, 1.0, 2.0, 4.0):
            groups = [rng.normal(0, 1, 30).tolist(),
                      (rng.normal(0, 1, 30) + separation).tolist()]
            f_values.append(anova_oneway(groups))
        ordered = sorted(f_values, key=lambda r: r.f_statistic)
        p_in_f_order = [r.p_value for r in ordered]
        assert p_in_f_order == sorted(p_in_f_order, reverse=True)
